package redislike

import (
	"errors"
	"fmt"

	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// Durability control plane: the WAL API methods and their command
// handlers. Everything here serialises on walMu; the data plane never
// touches it.

// errReplicaLog refuses a local log on a replica: its durability is the
// leader's log, and the stream is the only writer of its graph.
var errReplicaLog = errors.New("a replica keeps no log of its own (it follows the leader's)")

// commit is run by the serve loop before every reply flush, on every
// connection: it waits out the log's group commit for everything
// staged so far — two atomic loads when that is nothing — and reads the
// graph's sticky log error, once per drain. A failure means mutations
// are in memory that the log cannot back: the host server degrades to
// read-only serving (writes answer -MISCONF until wal_resume, reads
// keep serving), and the caller takes back the drain's write
// acknowledgements. Every later drain observes the same sticky error,
// so the degrade edge (log line included) fires exactly once.
func (gm *GraphModule) commit() error {
	err := gm.g.Commit()
	if s := gm.srv; err != nil && s != nil && !s.Degraded() && s.SetDegraded("wal: "+err.Error()) {
		gm.log.Error("wal failure; degrading to read-only serving (run wal_resume after fixing storage)",
			"err", err)
	}
	return err
}

// EnableWAL is the durability boot step — cgserver's -wal-dir, the
// paper's rdb_load: it makes dir describe the module's graph and
// attaches the write-ahead log there, so every later acknowledged
// mutation is durable. A graph nothing has written to is rebuilt from
// dir (newest checkpoint snapshot plus log tail; an empty or missing
// directory gives an empty graph) and no checkpoint is cut, because dir
// already describes it. Any other graph is checkpointed into dir once
// the log is open, so nothing stale in dir comes back on recovery. It is
// refused once the server listens, on a replica (its log is the
// leader's) and while a log is attached.
func (gm *GraphModule) EnableWAL(dir string, opts wal.Options) error {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	switch {
	case gm.srv != nil && gm.srv.listening.Load():
		return errors.New("wal is enabled at boot, before the server listens")
	case gm.replica.Load() != nil:
		return errReplicaLog
	case gm.wal != nil:
		return fmt.Errorf("wal already enabled in %s", gm.wal.Dir())
	}
	g := gm.g
	boot := g.Mutations() == 0
	if boot {
		rg, stats, err := wal.Recover(dir, sharded.Config{Shards: g.Shards()})
		if err == nil {
			err = gm.installGraph(rg)
		}
		if err != nil {
			return fmt.Errorf("recover %s: %w", dir, err)
		}
		gm.log.Info("wal recovered", "dir", dir,
			"edges", g.NumEdges(), "records", stats.Replay.Records,
			"segments", stats.Replay.Segments, "torn_bytes", stats.Replay.TornBytes,
			"snapshot", stats.Snapshot, "elapsed", stats.Elapsed)
	}
	w, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	g.SetWAL(w)
	if !boot {
		if _, err := wal.Checkpoint(g, w); err != nil {
			g.SetWAL(nil)
			w.Close()
			return err
		}
	}
	gm.wal = w
	gm.walPtr.Store(w)
	// Remembered so ResumeWAL can reopen the same log with the same
	// policy after a storage failure.
	gm.walOpts, gm.walDir = opts, dir
	gm.log.Info("wal enabled", "dir", dir, "sync", opts.Sync.String())
	return nil
}

// ResumeWAL recovers from a WAL storage failure: it detaches and closes
// the poisoned log, reopens the directory (truncating any torn tail),
// and cuts a fresh checkpoint before reattaching. The checkpoint is the
// correctness keystone — mutations that were applied in memory but
// whose append failed exist nowhere on disk, so the reopened directory
// must be made to describe the live graph before any new write is acked
// against it. On success the host server leaves degraded mode.
func (gm *GraphModule) ResumeWAL() error {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	if gm.walDir == "" {
		return fmt.Errorf("wal not enabled")
	}
	dir := gm.walDir
	g := gm.g
	// gm.wal is nil when a previous resume attempt already tore the
	// poisoned log down but could not reopen it (disk still full) — the
	// retry just goes straight to the reopen.
	if gm.wal != nil {
		g.SetWAL(nil)
		gm.walPtr.Store(nil)
		// The close of a poisoned WAL reports the sticky error; that
		// failure is exactly why we are here, so it is logged and dropped.
		if err := gm.wal.Close(); err != nil {
			gm.log.Warn("wal resume: closing failed log", "err", err)
		}
		gm.wal = nil
	}
	w, err := wal.Open(dir, gm.walOpts)
	if err != nil {
		return fmt.Errorf("reopen wal in %s: %w", dir, err)
	}
	g.SetWAL(w)
	if _, err := wal.Checkpoint(g, w); err != nil {
		g.SetWAL(nil)
		w.Close()
		return fmt.Errorf("checkpoint after reopen (storage still failing?): %w", err)
	}
	gm.wal = w
	gm.walPtr.Store(w)
	if gm.srv != nil {
		gm.srv.ClearDegraded()
	}
	gm.log.Info("wal resumed", "dir", dir)
	return nil
}

// Checkpoint snapshots the graph into the WAL directory and truncates
// the log segments the snapshot supersedes.
func (gm *GraphModule) Checkpoint() (string, error) {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	if gm.wal == nil {
		return "", fmt.Errorf("wal not enabled")
	}
	path, err := wal.Checkpoint(gm.g, gm.wal)
	if err != nil {
		gm.log.Error("checkpoint failed", "err", err)
		return "", err
	}
	gm.log.Info("checkpoint written", "path", path)
	return path, nil
}

// CloseWAL detaches and closes the WAL, flushing everything pending.
func (gm *GraphModule) CloseWAL() error {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	// A deliberate close forgets the directory: wal_resume must not
	// resurrect a log the operator shut down on purpose.
	gm.walDir = ""
	if gm.wal == nil {
		return nil
	}
	gm.g.SetWAL(nil)
	// Clear the lock-free mirror BEFORE closing: a /metrics or G.INFO
	// scrape that loads the pointer must never observe a WAL that Close
	// is tearing down. (Stats on a closed WAL is also well-defined —
	// counters are final and Closed is set — so a scrape that loaded
	// the pointer just before this store stays safe too.)
	gm.walPtr.Store(nil)
	err := gm.wal.Close()
	gm.wal = nil
	if err != nil {
		gm.log.Error("wal close failed", "err", err)
	} else {
		gm.log.Info("wal closed")
	}
	return err
}

func (gm *GraphModule) checkpoint(ctx *Ctx) error {
	path, err := gm.Checkpoint()
	if err != nil {
		return &WALError{Cmd: ctx.Name, Err: err}
	}
	ctx.ReplyBulkString(path)
	return nil
}

func (gm *GraphModule) walResume(ctx *Ctx) error {
	if err := gm.ResumeWAL(); err != nil {
		return &WALError{Cmd: ctx.Name, Err: err}
	}
	ctx.ReplySimple("OK")
	return nil
}

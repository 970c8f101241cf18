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
	if s := gm.srv; err != nil && !s.Degraded() && s.setDegraded(err.Error()) {
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
	switch w := gm.walPtr.Load(); {
	case gm.srv != nil && gm.srv.listening.Load():
		return errors.New("wal is enabled at boot, before the server listens")
	case gm.replica.Load() != nil:
		return errReplicaLog
	case w != nil:
		return fmt.Errorf("wal already enabled in %s", w.Dir())
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
	if err := gm.attachWAL(dir, opts, !boot); err != nil {
		return err
	}
	gm.log.Info("wal enabled", "dir", dir, "sync", opts.Sync.String())
	return nil
}

// attachWAL is the attach step of EnableWAL and ResumeWAL: open the log
// in dir, attach it to the graph and, if checkpoint is set, checkpoint
// so dir describes the live graph; on failure nothing stays attached.
// On success it publishes the log and remembers dir and opts for
// ResumeWAL's reopen. The caller holds walMu.
func (gm *GraphModule) attachWAL(dir string, opts wal.Options, checkpoint bool) error {
	w, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	gm.g.SetWAL(w)
	if checkpoint {
		if _, err := wal.Checkpoint(gm.g, w); err != nil {
			gm.g.SetWAL(nil)
			w.Close()
			return err
		}
	}
	gm.walPtr.Store(w)
	gm.walOpts, gm.walDir = opts, dir
	return nil
}

// detachWAL detaches and closes the attached log, if any. The pointer
// is cleared before the close, so a scrape that loads it never observes
// a log Close is tearing down (one that loaded it just before reads
// final counters: Stats on a closed WAL is well-defined). The caller
// holds walMu.
func (gm *GraphModule) detachWAL() error {
	w := gm.walPtr.Load()
	if w == nil {
		return nil
	}
	gm.g.SetWAL(nil)
	gm.walPtr.Store(nil)
	return w.Close()
}

// errNotDegraded refuses wal_resume on a healthy server: resuming
// detaches the log before it reopens it, and a write served in that
// window would be acknowledged with no log to back it. A degraded
// server refuses writes (-MISCONF), so there the window is safe.
var errNotDegraded = &Error{Class: ClassErr, Msg: "the server is not degraded; wal_resume only reopens a log after a storage failure"}

// errNoWAL refuses a log command on a server started without a log:
// nothing was applied and no log failed.
var errNoWAL = &Error{Class: ClassErr, Msg: "wal not enabled"}

// ResumeWAL recovers from a WAL storage failure: it detaches and closes
// the poisoned log, reopens the directory (truncating any torn tail),
// and cuts a fresh checkpoint before reattaching. The checkpoint is the
// correctness keystone — mutations that were applied in memory but
// whose append failed exist nowhere on disk, so the reopened directory
// must be made to describe the live graph before any new write is acked
// against it. It is refused unless the host server is degraded, and on
// success the server leaves degraded mode.
func (gm *GraphModule) ResumeWAL() error {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	dir := gm.walDir
	switch {
	case dir == "":
		return errNoWAL
	case gm.srv == nil || !gm.srv.Degraded():
		return errNotDegraded
	}
	// No log is attached when a previous resume attempt already tore the
	// poisoned one down but could not reopen it (disk still full) — the
	// retry just goes straight to the reopen. The close of a poisoned
	// log reports the sticky error; that failure is exactly why we are
	// here, so it is logged and dropped.
	if err := gm.detachWAL(); err != nil {
		gm.log.Warn("wal resume: closing failed log", "err", err)
	}
	if err := gm.attachWAL(dir, gm.walOpts, true); err != nil {
		return fmt.Errorf("reopen wal in %s (storage still failing?): %w", dir, err)
	}
	gm.srv.clearDegraded()
	gm.log.Info("wal resumed", "dir", dir)
	return nil
}

// Checkpoint snapshots the graph into the WAL directory and truncates
// the log segments the snapshot supersedes.
func (gm *GraphModule) Checkpoint() (string, error) {
	gm.walMu.Lock()
	defer gm.walMu.Unlock()
	w := gm.walPtr.Load()
	if w == nil {
		return "", errNoWAL
	}
	path, err := wal.Checkpoint(gm.g, w)
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
	if gm.walPtr.Load() == nil {
		return nil
	}
	if err := gm.detachWAL(); err != nil {
		gm.log.Error("wal close failed", "err", err)
		return err
	}
	gm.log.Info("wal closed")
	return nil
}

func (gm *GraphModule) checkpoint(ctx *Ctx) error {
	path, err := gm.Checkpoint()
	if err != nil {
		return walError(ctx.Name, err)
	}
	ctx.w.AppendBulkString(path)
	return nil
}

// walResume answers a refusal — no log, or a healthy server — as a
// plain ERR: the log is fine, the request is not. A failure to reopen
// the log is -WALERR.
func (gm *GraphModule) walResume(ctx *Ctx) error {
	if err := gm.ResumeWAL(); err != nil {
		return walError(ctx.Name, err)
	}
	ctx.w.AppendSimple("OK")
	return nil
}

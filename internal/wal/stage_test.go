package wal

import (
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// replayOps reads dir back as the ordered op list.
func replayOps(t *testing.T, dir string) (core.Batch, ReplayStats) {
	t.Helper()
	var got core.Batch
	stats, err := Replay(dir, 0, func(o core.Op) error {
		got = append(got, o)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, stats
}

// TestStageCommitGroupsIntoOneRecord: everything staged before a Commit
// goes out as one frame — one record, one write(2), one commit slot —
// in stage order; nothing reaches the file before the Commit; and a
// group of one op is a batch record too.
func TestStageCommitGroupsIntoOneRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var want core.Batch
	for i := uint64(0); i < 16; i++ {
		b := core.Batch{}.Insert(i, i+1)
		if i%4 == 3 {
			b = b.Delete(i-1, i)
		}
		if err := w.Stage(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if st := w.Stats(); st.Bytes != 0 || st.GroupCommits != 0 || st.Records != 0 {
		t.Fatalf("Stage did I/O: %+v", st)
	} else if st.Appends != 16 || st.Ops != uint64(len(want)) || st.PendingBytes == 0 {
		t.Fatalf("after 16 stages: %+v", st)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.GroupCommits != 1 || st.Records != 1 || st.PendingBytes != 0 {
		t.Fatalf("after commit: %+v, want one record in one group commit", st)
	}
	// Nothing staged: Commit is a no-op, not an empty write.
	if err := w.Commit(); err != nil || w.Stats().GroupCommits != 1 {
		t.Fatalf("idle Commit: err=%v commits=%d", err, w.Stats().GroupCommits)
	}
	// A group of one op is a one-op batch record.
	if err := w.Stage(core.Batch{}.Insert(100, 200)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want = append(want, core.InsertOp(100, 200))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayOps(t, dir)
	if stats.BatchRecords != 2 {
		t.Fatalf("BatchRecords = %d, want 2 (the 16-stage group and the lone op)", stats.BatchRecords)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v (log order must equal stage order)", i, got[i], want[i])
		}
	}
}

// TestStageRejectsWithoutStaging: an unloggable op, a closed WAL and a
// poisoned WAL all fail at Stage, leaving the group untouched.
func TestStageRejectsWithoutStaging(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(core.Batch{{Kind: recBatch, U: 1, V: 2}}); err == nil {
		t.Fatal("Stage accepted an op that is neither insert nor delete")
	}
	if st := w.Stats(); st.Appends != 0 || st.PendingBytes != 0 {
		t.Fatalf("rejected Stage left state behind: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Stage(core.Batch{}.Insert(1, 2)); err != ErrClosed {
		t.Fatalf("Stage on closed WAL = %v, want ErrClosed", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit with nothing staged on a closed WAL = %v", err)
	}
}

// TestGroupNeverSplitsABatch: a record holds at most maxBatchOps ops,
// but the cut falls between staged batches, never inside one — replay
// still applies each batch whole or not at all.
func TestGroupNeverSplitsABatch(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	const per = 20000 // two of these exceed maxBatchOps
	for k := uint64(0); k < 3; k++ {
		b := make(core.Batch, 0, per)
		for i := uint64(0); i < per; i++ {
			b = b.Insert(k, i)
		}
		if err := w.Stage(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Records != 3 || st.GroupCommits != 1 {
		t.Fatalf("records=%d commits=%d, want 3 records (one per batch) in 1 commit", st.Records, st.GroupCommits)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, stats := replayOps(t, dir); len(got) != 3*per || stats.BatchRecords != 3 {
		t.Fatalf("replayed %d ops in %d batch records", len(got), stats.BatchRecords)
	}
}

// TestStageCommitZeroAlloc: the staged group and the encoded frame are
// swapped and reused, so a warm stage-and-commit cycle allocates
// nothing.
func TestStageCommitZeroAlloc(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	one := core.Batch{}.Insert(1, 2)
	many := core.Batch{}.Insert(1, 2).Delete(1, 2).Insert(3, 4)
	cycle := func() {
		for i := 0; i < 8; i++ {
			w.Stage(one)
			w.Stage(many)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 5, V: 6}})
	}
	cycle()
	cycle() // both buffers of the swap have now grown
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm stage+commit cycle allocates %.1f/run, want 0", allocs)
	}
}

// gateFS makes the device slow on demand: while armed, every Write and
// Sync of a segment file announces itself on entered and then waits for
// the gate to open.
type gateFS struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
	syncs   atomic.Int64 // segment fsyncs
}

type gateFile struct {
	vfs.File
	fs *gateFS
}

func (g *gateFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, segSuffix) {
		return f, err
	}
	return &gateFile{File: f, fs: g}, nil
}

func (g *gateFS) wait() {
	if g.armed.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.fs.wait()
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	f.fs.wait()
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// within fails the test if fn has not returned after a second: the
// shape of "this must not wait for the device".
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s blocked behind a commit parked in the device", what)
	}
}

// TestNoIOUnderShardLock: a writer whose commit is parked inside the
// device holds no shard lock — readers of its shard and other writers'
// stages on it proceed — and everything staged while the device was
// busy is covered by the next single fsync, however many writers that
// is. Logging under the lock, the group could never exceed P.
func TestNoIOUnderShardLock(t *testing.T) {
	const (
		shards  = 2
		writers = 8 // stalled "connections", all on one shard
		node    = 1
	)
	gfs := &gateFS{FS: vfs.OS, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := sharded.New(sharded.Config{Shards: shards, WAL: w})
	opened := gfs.syncs.Load() // creating the first segment fsyncs it

	// Writer A applies, stages, unlocks, and parks inside write(2).
	gfs.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !g.InsertEdge(node, 2) {
			t.Error("writer A: edge not new")
		}
	}()
	select {
	case <-gfs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer A never reached the device")
	}

	// Its shard is free meanwhile: reads answer (and already see the
	// edge whose commit is in flight), and a second writer's stage on the
	// same shard goes through.
	within(t, "HasEdge", func() {
		if !g.HasEdge(node, 2) {
			t.Error("HasEdge: applied edge not visible")
		}
	})
	within(t, "Degree", func() {
		if d := g.Degree(node); d != 1 {
			t.Errorf("Degree = %d, want 1", d)
		}
	})
	within(t, "Stage on the same shard", func() {
		if res := g.Stage(core.Batch{}.Insert(node, 3)); res.Inserted != 1 {
			t.Errorf("Stage: %+v", res)
		}
	})

	// K more writers on that one shard all get as far as waiting for
	// durability — none of them waits for a lock.
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			g.InsertEdge(node, v)
		}(uint64(10 + i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.NumEdges() != 2+writers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d mutations applied while the device was busy", g.NumEdges(), 2+writers)
		}
		time.Sleep(time.Millisecond)
	}

	// The device comes back: A's own write and fsync finish, then ONE
	// group — the staged op and all K writers — takes one more of each.
	gfs.armed.Store(false)
	close(gfs.gate)
	wg.Wait()
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if fsyncs := gfs.syncs.Load() - opened; st.Appends != 2+writers || st.GroupCommits != 2 || fsyncs != 2 {
		t.Fatalf("appends=%d group commits=%d segment fsyncs=%d; want %d appends in 2 commits, 2 fsyncs",
			st.Appends, st.GroupCommits, fsyncs, 2+writers)
	}
	if perCommit := (st.Appends - 1) / (st.GroupCommits - 1); perCommit <= shards {
		t.Fatalf("second commit covered %d appends, want more than P=%d", perCommit, shards)
	}
	if err := g.LogErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCutCoversStagedRecords: a record staged but not yet
// committed when a checkpoint freezes the graph lands in a segment
// older than the rotation, so snapshot plus log tail never applies it
// twice and never loses it.
func TestCheckpointCutCoversStagedRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	g := sharded.New(sharded.Config{Shards: 2, WAL: w})
	g.Stage(core.Batch{}.Insert(1, 2).Insert(2, 3)) // staged, never committed by its writer
	before := w.TailPosition().Seg
	if _, err := Checkpoint(g, w); err != nil {
		t.Fatal(err)
	}
	if w.TailPosition().Seg != before+1 {
		t.Fatalf("segment %d after checkpoint, want %d", w.TailPosition().Seg, before+1)
	}
	if st := w.Stats(); st.PendingBytes != 0 || st.Records == 0 {
		t.Fatalf("staged ops were not written ahead of the rotation: %+v", st)
	}
	g.InsertEdge(3, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the post-cut record is left to replay; the snapshot has the rest.
	if got, _ := replayOps(t, dir); len(got) != 1 || got[0] != core.InsertOp(3, 4) {
		t.Fatalf("log tail after checkpoint = %+v, want just the insert of 3>4", got)
	}
	rec, _, err := Recover(dir, sharded.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.NumEdges() != 3 || !rec.HasEdge(1, 2) || !rec.HasEdge(2, 3) || !rec.HasEdge(3, 4) {
		t.Fatalf("recovered %d edges", rec.NumEdges())
	}
}

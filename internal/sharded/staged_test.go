package sharded

import (
	"errors"
	"testing"
	"unsafe"

	"cuckoograph/internal/core"
)

// stagedRecorder is a StagedLogger that notes, for every call, whether
// the shard owning node 1 was write-locked at the time.
type stagedRecorder struct {
	g      *Graph
	events []string
	staged core.Batch
	fail   error // returned by Commit
}

func (r *stagedRecorder) note(what string) {
	sh := r.g.shardOf(1)
	if sh.mu.TryRLock() {
		sh.mu.RUnlock()
		what += ":unlocked"
	} else {
		what += ":locked"
	}
	r.events = append(r.events, what)
}

func (r *stagedRecorder) LogBatch(core.Batch) error { r.note("logbatch"); return nil }

func (r *stagedRecorder) Stage(b core.Batch) error {
	r.note("stage")
	r.staged = append(r.staged, b...) // the batch is only valid for the call
	return nil
}

func (r *stagedRecorder) Commit() error { r.note("commit"); return r.fail }

func eventsEqual(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestStageUnderLockCommitAfter pins the split: with a StagedLogger the
// stage happens under the shard lock, the commit after the unlock, and
// LogBatch is never used; the synchronous methods are stage + commit,
// Stage alone defers the commit to the caller.
func TestStageUnderLockCommitAfter(t *testing.T) {
	r := &stagedRecorder{}
	g := New(Config{Shards: 2, WAL: r})
	r.g = g

	if !g.InsertEdge(1, 2) {
		t.Fatal("InsertEdge: not new")
	}
	if !eventsEqual(r.events, "stage:locked", "commit:unlocked") {
		t.Fatalf("InsertEdge events = %v", r.events)
	}
	r.events = nil
	g.InsertEdge(1, 2) // duplicate: nothing to log, the commit is still owed
	if !eventsEqual(r.events, "commit:unlocked") {
		t.Fatalf("duplicate InsertEdge events = %v", r.events)
	}

	r.events = nil
	if res := g.Stage(core.Batch{}.Insert(1, 3).Insert(1, 2).Delete(1, 2)); res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("Stage = %+v", res)
	}
	if !eventsEqual(r.events, "stage:locked") {
		t.Fatalf("Stage events = %v (no commit may happen inside Stage)", r.events)
	}
	if err := g.Commit(); err != nil || !eventsEqual(r.events, "stage:locked", "commit:unlocked") {
		t.Fatalf("Commit = %v, events = %v", err, r.events)
	}

	r.events = nil
	g.ApplyBatch(core.Batch{}.Insert(1, 4).Insert(1, 5))
	if !eventsEqual(r.events, "stage:locked", "commit:unlocked") {
		t.Fatalf("ApplyBatch events = %v, want Stage then Commit", r.events)
	}

	// Only applied ops were staged, in apply order, copied out of the
	// per-shard scratch.
	want := core.Batch{}.Insert(1, 2).Insert(1, 3).Delete(1, 2).Insert(1, 4).Insert(1, 5)
	if len(r.staged) != len(want) {
		t.Fatalf("staged %+v, want %+v", r.staged, want)
	}
	for i := range want {
		if r.staged[i] != want[i] {
			t.Fatalf("staged[%d] = %+v, want %+v", i, r.staged[i], want[i])
		}
	}
}

// TestCommitErrorIsSticky: a failed commit surfaces through Commit and
// LogErr, stays until the Logger is swapped, and is not retried — a log
// that failed once cannot make anything further durable.
func TestCommitErrorIsSticky(t *testing.T) {
	r := &stagedRecorder{fail: errors.New("disk full")}
	g := New(Config{Shards: 2, WAL: r})
	r.g = g
	g.InsertEdge(1, 2)
	if err := g.LogErr(); err == nil || err.Error() != "disk full" {
		t.Fatalf("LogErr = %v, want disk full", err)
	}
	r.events = nil
	if err := g.Commit(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Commit = %v, want the sticky error", err)
	}
	if len(r.events) != 0 {
		t.Fatalf("Commit after a sticky error still called the logger: %v", r.events)
	}
	g.SetWAL(&stagedRecorder{g: g})
	if err := g.Commit(); err != nil {
		t.Fatalf("Commit after SetWAL = %v", err)
	}
}

// TestPlainLoggerStagesThroughLogBatch: a one-method Logger keeps
// working — its LogBatch is the stage, under the lock, and Commit has
// nothing to wait for.
func TestPlainLoggerStagesThroughLogBatch(t *testing.T) {
	w := &walRecorder{}
	g := New(Config{Shards: 2, WAL: w})
	g.Stage(core.Batch{}.Insert(1, 2).Insert(1, 3))
	if len(w.ops) != 2 {
		t.Fatalf("plain logger saw %d ops at stage time, want 2", len(w.ops))
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	w.fail = errors.New("disk full")
	g.InsertEdge(1, 4)
	if err := g.Commit(); err == nil {
		t.Fatal("Commit did not report the plain logger's sticky error")
	}
	if New(Config{}).Commit() != nil {
		t.Fatal("Commit without a logger")
	}
}

// TestShardIsTwoCacheLines: the shard struct's fields, its one pad
// word included, must fill 128 bytes exactly so neighbouring shards'
// locks never share a line.
func TestShardIsTwoCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(shard{}); n != 128 {
		t.Fatalf("sizeof(shard) = %d, want 128", n)
	}
}

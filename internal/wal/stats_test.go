package wal

import (
	"testing"

	"cuckoograph/internal/core"
)

// TestStatsCounters pins the observability export: the counters behind
// /metrics must track appends, records, ops, group commits, fsyncs and
// rotations through a realistic write sequence.
func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if st := w.Stats(); st.Appends != 0 || st.Records != 0 || st.Ops != 0 {
		t.Fatalf("fresh wal stats = %+v", st)
	}

	for i := uint64(0); i < 10; i++ {
		if err := w.Append(core.OpInsert, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	batch := make(core.Batch, 25)
	for i := range batch {
		batch[i] = core.Op{Kind: core.OpInsert, U: 100, V: uint64(200 + i)}
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}

	st := w.Stats()
	if st.Appends != 11 {
		t.Fatalf("Appends = %d, want 11", st.Appends)
	}
	if st.Ops != 35 {
		t.Fatalf("Ops = %d, want 35", st.Ops)
	}
	if st.Records < 11 {
		t.Fatalf("Records = %d, want >= 11", st.Records)
	}
	if st.GroupCommits == 0 {
		t.Fatal("GroupCommits = 0 after acknowledged appends")
	}
	if st.Syncs == 0 {
		t.Fatal("Syncs = 0 under SyncAlways")
	}
	if st.Bytes == 0 {
		t.Fatal("Bytes = 0 after writes")
	}
	if st.PendingBytes != 0 {
		t.Fatalf("PendingBytes = %d after acknowledged appends", st.PendingBytes)
	}
	if st.Failed {
		t.Fatal("Failed on a healthy wal")
	}

	seg := st.Segment
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.Rotations != 1 {
		t.Fatalf("Rotations = %d, want 1", st.Rotations)
	}
	if st.Segment != seg+1 {
		t.Fatalf("Segment = %d, want %d", st.Segment, seg+1)
	}
}

// TestStatsAsyncPending: ops staged but not committed are visible as
// PendingBytes until a Sync drains them.
func TestStatsAsyncPending(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := uint64(0); i < 100; i++ {
		if err := w.Stage(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.PendingBytes != 100*uint64(opBytes) {
		t.Fatalf("PendingBytes = %d with 100 ops staged, want %d", st.PendingBytes, 100*opBytes)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != 100 || st.Ops != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PendingBytes != 0 {
		t.Fatalf("PendingBytes = %d after Sync", st.PendingBytes)
	}
	if st.Syncs == 0 {
		t.Fatal("Syncs = 0 after explicit Sync")
	}
}

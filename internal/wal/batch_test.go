package wal

import (
	"errors"
	"os"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
)

// TestAppendBatchRoundTrip: a mixed batch logged as one record must
// replay as the same ops in the same order, interleaved correctly with
// the one-op records around it — each of them a batch record too.
func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 100, V: 200}}); err != nil {
		t.Fatal(err)
	}
	batch := core.Batch{}.Insert(1, 2).Delete(3, 4).Insert(5, 6).Delete(1, 2)
	if err := w.LogBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpDelete, U: 100, V: 200}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got core.Batch
	stats, err := Replay(dir, 0, func(o core.Op) error {
		got = append(got, o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append(core.Batch{core.InsertOp(100, 200)}, batch...)
	want = append(want, core.DeleteOp(100, 200))
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.Records != uint64(len(want)) {
		t.Fatalf("Records = %d, want %d", stats.Records, len(want))
	}
	if stats.BatchRecords != 3 {
		t.Fatalf("BatchRecords = %d, want 3 (every record written)", stats.BatchRecords)
	}
}

// TestAppendBatchEdgeSizes: empty batches are no-ops and a size-1 batch
// is a batch record holding one op.
func TestAppendBatchEdgeSizes(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{}.Insert(7, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var n uint64
	stats, err := Replay(dir, 0, func(o core.Op) error {
		n++
		if o != core.InsertOp(7, 8) {
			t.Fatalf("replayed %+v", o)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || stats.BatchRecords != 1 {
		t.Fatalf("replayed %d ops, %d batch records; want 1 op in 1 batch record", n, stats.BatchRecords)
	}
}

// TestAppendBatchChunksHugeBatches: a batch past maxBatchOps splits
// into several records but survives replay intact and ordered.
func TestAppendBatchChunksHugeBatches(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	n := maxBatchOps + 17
	b := make(core.Batch, 0, n)
	for i := 0; i < n; i++ {
		b = b.Insert(uint64(i), uint64(i)+1)
	}
	if err := w.LogBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var i uint64
	stats, err := Replay(dir, 0, func(o core.Op) error {
		if o != core.InsertOp(i, i+1) {
			t.Fatalf("op %d replayed as %+v", i, o)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != uint64(n) {
		t.Fatalf("replayed %d ops, want %d", i, n)
	}
	if stats.BatchRecords != 2 {
		t.Fatalf("BatchRecords = %d, want 2 (chunked)", stats.BatchRecords)
	}
}

// TestReplayFrameLargerThanReadChunk: replay reads a segment in
// readerChunkBytes chunks, and a record wider than one chunk must still
// replay whole — or, cut short by a crash, drop whole as a tear.
func TestReplayFrameLargerThanReadChunk(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	big := make(core.Batch, maxBatchOps)
	for i := range big {
		big[i] = core.InsertOp(^uint64(i), ^uint64(0)-1)
	}
	if err := w.LogBatch(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Bytes < 2*readerChunkBytes {
		t.Fatalf("wrote %d bytes, want a record wider than two read chunks", st.Bytes)
	}
	got, stats := replayOps(t, dir)
	if len(got) != 1+len(big) || got[0] != core.InsertOp(1, 2) || got[len(got)-1] != big[len(big)-1] || stats.TornBytes != 0 {
		t.Fatalf("replayed %d ops (torn %d), want %d", len(got), stats.TornBytes, 1+len(big))
	}
	truncateBy(t, lastSegment(t, dir), readerChunkBytes)
	if got, stats = replayOps(t, dir); len(got) != 1 || stats.TornBytes == 0 {
		t.Fatalf("after cutting the wide record: %d ops, %d torn bytes; want 1 op and a tear", len(got), stats.TornBytes)
	}
}

// TestAppendBatchRejectsUnknownKind: unloggable ops must fail up front,
// before anything reaches the file.
func TestAppendBatchRejectsUnknownKind(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	defer w.Close()
	bad := core.Batch{core.InsertOp(1, 2), {Kind: 77, U: 3, V: 4}}
	if err := w.LogBatch(bad); err == nil {
		t.Fatal("AppendBatch accepted an unknown op kind")
	}
	var n int
	if _, err := Replay(dir, 0, func(core.Op) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("rejected batch leaked %d ops into the log", n)
	}
}

// TestTornBatchTailDroppedWhole cuts a trailing batch record at many
// byte boundaries: replay must drop the whole batch — never a partial
// one — and keep every record before it.
func TestTornBatchTailDroppedWhole(t *testing.T) {
	build := func(t *testing.T, dir string, withBatch bool) int64 {
		w := mustOpen(t, dir, Options{Sync: SyncNone})
		for i := uint64(0); i < 10; i++ {
			if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if withBatch {
			batch := core.Batch{}.Insert(1000, 1001).Insert(1002, 1003).Delete(1000, 1001).Insert(1004, 1005)
			if err := w.LogBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// The batch record is everything after the 10 one-op records;
	// cut it at every boundary from "missing 1 byte" to "missing all".
	full := build(t, t.TempDir(), true)
	batchBytes := full - build(t, t.TempDir(), false)
	if batchBytes <= 0 {
		t.Fatalf("bad frame arithmetic: full=%d batch=%d", full, batchBytes)
	}
	for cut := int64(1); cut <= batchBytes; cut += 3 {
		dir := t.TempDir()
		build(t, dir, true)
		truncateBy(t, lastSegment(t, dir), cut)
		var ops, batchOps uint64
		stats, err := Replay(dir, 0, func(o core.Op) error {
			ops++
			if o.U >= 1000 {
				batchOps++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if batchOps != 0 {
			t.Fatalf("cut %d: %d ops of the torn batch applied — batches must be atomic", cut, batchOps)
		}
		if ops != 10 {
			t.Fatalf("cut %d: replayed %d ops, want the 10 intact singles", cut, ops)
		}
		if stats.TornBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
	}
}

// TestCorruptBatchBeforeIntactDataFails: a damaged batch record with
// intact records after it is corruption, not a tear, even in the
// newest segment.
func TestCorruptBatchBeforeIntactDataFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	big := make(core.Batch, 0, 200)
	for i := uint64(0); i < 200; i++ {
		big = big.Insert(i, i+1)
	}
	if err := w.LogBatch(big); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 5000 + i, V: 5000 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the batch payload (well past the header).
	data[segHeaderSize+20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Replay err = %v, want ErrCorrupt", err)
	}
}

// TestRecoverThroughBatchRecords: sharded mutations logged via the
// batch path must recover to the identical graph.
func TestRecoverThroughBatchRecords(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	g := sharded.New(sharded.Config{Shards: 4, WAL: w})
	var b core.Batch
	for i := uint64(0); i < 5000; i++ {
		b = b.Insert(i%512, i)
		if i%7 == 0 {
			b = b.Delete(i%512, i-1)
		}
		if len(b) >= 256 {
			g.ApplyBatch(b)
			b = b[:0]
		}
	}
	g.ApplyBatch(b)
	if err := g.LogErr(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, stats, err := Recover(dir, sharded.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replay.BatchRecords == 0 {
		t.Fatal("recovery saw no batch records — the batch path was not exercised")
	}
	if rec.NumEdges() != g.NumEdges() || rec.NumNodes() != g.NumNodes() {
		t.Fatalf("recovered %d edges / %d nodes, want %d / %d",
			rec.NumEdges(), rec.NumNodes(), g.NumEdges(), g.NumNodes())
	}
	g.ForEachNode(func(u uint64) bool {
		g.ForEachSuccessor(u, func(v uint64) bool {
			if !rec.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) lost in recovery", u, v)
			}
			return true
		})
		return true
	})
}

package wal

// The crash-recovery suite: every test damages a real on-disk log the
// way a crash would — a truncated tail segment (kill mid-batch), a torn
// final record, garbage in the tail — and asserts replay degrades to
// exactly the acknowledged prefix, never an error and never wrong data.

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// lastSegment returns the newest segment's path.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(vfs.OS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < n {
		t.Fatalf("segment %s only %d bytes, cannot cut %d", path, fi.Size(), n)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestTornFinalRecordIsDropped cuts the last record at every byte
// boundary a crash could leave and checks replay returns exactly the
// records before it.
func TestTornFinalRecordIsDropped(t *testing.T) {
	for _, cut := range []int64{1, 2, 3, 4, 5} {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{Sync: SyncNone})
		const n = 100
		for i := uint64(0); i < n; i++ {
			if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		truncateBy(t, lastSegment(t, dir), cut)

		var count uint64
		stats, err := Replay(dir, 0, func(core.Op) error { count++; return nil })
		if err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if count != n-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, count, n-1)
		}
		if stats.TornBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, stats)
		}
	}
}

// TestGarbageTailIsDropped overwrites the final record's checksum —
// the torn-write case where the bytes exist but lie.
func TestGarbageTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
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
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var count uint64
	_, err = Replay(dir, 0, func(core.Op) error { count++; return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != n-1 {
		t.Fatalf("replayed %d records, want %d", count, n-1)
	}
}

// TestLoneOpTearWindow pins the width of the tear window: garbage that
// covers no more than the widest one-op record (28 bytes) at the end of
// the newest segment is a tear, even when it reads as a frame that
// neither runs past end-of-file nor ends at it.
func TestLoneOpTearWindow(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	const n = 10
	for i := uint64(0); i < n; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: ^uint64(0), V: ^uint64(0)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[fi.Size():]
	if len(rec) != 28 {
		t.Fatalf("widest one-op record is %d bytes, want 28", len(rec))
	}
	// Nonzero garbage whose first byte reads as a 5-byte payload: the
	// bad frame ends 10 bytes in, 18 short of end-of-file.
	rec[0] = 5
	for i := 1; i < len(rec); i++ {
		rec[i] = 0xA5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var count uint64
	stats, err := Replay(dir, 0, func(core.Op) error { count++; return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != n || stats.TornBytes != 28 {
		t.Fatalf("replayed %d ops with %d torn bytes, want %d with 28", count, stats.TornBytes, n)
	}
}

// TestReopenAfterTornTailTruncates simulates crash → restart: Open must
// cut the torn tail so new appends produce a log whose replay is the
// surviving prefix plus the new records.
func TestReopenAfterTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	for i := uint64(0); i < 10; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truncateBy(t, lastSegment(t, dir), 2)

	w = mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 100, V: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	stats, err := Replay(dir, 0, func(o core.Op) error { got = append(got, o.U); return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if stats.TornBytes != 0 {
		t.Fatalf("reopen left a torn tail: %+v", stats)
	}
}

// TestCrashSimulation100k is the headline acceptance scenario: a graph
// of ≥100k edges built through the WAL by concurrent writers "crashes"
// — the WAL is abandoned un-Closed (every acknowledged record is in the
// file, like a SIGKILL after the last ack) and the tail segment is then
// truncated mid-record — and recovery must rebuild the acknowledged
// prefix exactly, byte-for-byte equal Stats and edge set.
func TestCrashSimulation100k(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 1 << 20})
	cfg := testCfg()
	cfg.WAL = w
	g := sharded.New(cfg)

	const total = 120_000
	edges := randomEdges(total, 40_000, 99)
	var wg sync.WaitGroup
	const writers = 4
	chunk := total / writers
	for p := 0; p < writers; p++ {
		part := edges[p*chunk : (p+1)*chunk]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range part {
				g.InsertEdge(e.u, e.v)
				if i%11 == 0 {
					g.DeleteEdge(e.u, e.v)
				}
			}
		}()
	}
	wg.Wait()
	if err := g.LogErr(); err != nil {
		t.Fatalf("LogErr: %v", err)
	}
	// SIGKILL: no Close, no final fsync. Everything acknowledged is in
	// the page cache and therefore visible to a fresh reader.
	recovered, stats, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if recovered.NumEdges() < 100_000 {
		t.Fatalf("recovered only %d edges, want >= 100k", recovered.NumEdges())
	}
	if stats.Replay.Records == 0 {
		t.Fatalf("no records replayed: %+v", stats)
	}
	requireSameGraph(t, g, recovered)

	// Second crash flavour: tear the tail record. The recovered graph
	// must equal an undamaged graph built from the surviving records.
	_ = w.Close()
	truncateBy(t, lastSegment(t, dir), 3)
	want := sharded.New(testCfg())
	if _, err := Replay(dir, 0, func(o core.Op) error {
		want.ApplyBatch(core.Batch{o})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	torn, _, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatalf("Recover after torn tail: %v", err)
	}
	requireSameGraph(t, want, torn)
}

// TestRecovery1M checks a million-edge log replays comfortably within
// CI limits. Skipped under -short (the -race lane) where the insert
// instrumentation, not replay, dominates.
func TestRecovery1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge recovery is covered in the non-race lane")
	}
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 16 << 20})
	cfg := testCfg()
	cfg.WAL = w
	g := sharded.New(cfg)
	const total = 1_000_000
	r := rng(5)
	for i := 0; i < total; i++ {
		g.InsertEdge(r.next()%300_000, r.next()%300_000)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, stats, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if recovered.NumEdges() != g.NumEdges() {
		t.Fatalf("recovered %d edges, want %d", recovered.NumEdges(), g.NumEdges())
	}
	t.Logf("replayed %d records (%d segments) in %v", stats.Replay.Records, stats.Replay.Segments, stats.Elapsed)
}

// TestReopenAfterTornSegmentHeader covers a crash during segment
// creation itself: the new segment's 13-byte header was only partially
// written. Open must rebuild the segment rather than appending records
// to a headerless file replay would reject.
func TestReopenAfterTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	for i := uint64(0); i < 5; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-tear a fresh next segment's header.
	next := segmentPath(dir, 2)
	if err := os.WriteFile(next, []byte{0x43, 0x47, 0x57}, 0o644); err != nil {
		t.Fatal(err)
	}
	w = mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 100, V: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var count uint64
	stats, err := Replay(dir, 0, func(core.Op) error { count++; return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != 6 || stats.Segments != 2 {
		t.Fatalf("replayed %d records over %d segments, want 6 over 2", count, stats.Segments)
	}
}

// TestCorruptionDeepInLastSegmentFails pins the torn-vs-corrupt rule:
// only damage within one frame of end-of-file is a tear. A flipped bit
// deep in the newest segment, with plenty of intact data after it,
// must fail recovery rather than silently dropping acknowledged
// records.
func TestCorruptionDeepInLastSegmentFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
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
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Replay err = %v, want ErrCorrupt", err)
	}
	// Open must refuse too — appending after silent truncation would
	// bury the damage.
	if _, err := Open(dir, Options{Sync: SyncNone}); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("Open err = %v, want ErrCorrupt", err)
	}
}

// TestDirectoryLockExcludesSecondWriter: two processes (or two WALs in
// one process) must not interleave appends into the same directory.
func TestDirectoryLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if _, err := Open(dir, Options{Sync: SyncNone}); err == nil {
		t.Fatal("second Open of a locked WAL dir succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

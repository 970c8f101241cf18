package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/vfs"
)

// drainReader reads every available chunk from r and decodes the ops.
func drainReader(t *testing.T, r *Reader) []core.Op {
	t.Helper()
	var ops []core.Op
	for {
		chunk, _, err := r.Next()
		if errors.Is(err, ErrNoData) {
			return ops
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		ops, err = AppendChunkOps(chunk, ops)
		if err != nil {
			t.Fatalf("AppendChunkOps: %v", err)
		}
	}
}

// TestReaderStreamsLiveTail streams a mixed single/batch op sequence
// through a Reader — including across a segment rotation — and checks
// the decoded ops match what was appended, in order.
func TestReaderStreamsLiveTail(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var want []core.Op
	append1 := func(kind core.OpKind, u, v uint64) {
		if err := w.LogBatch(core.Batch{{Kind: kind, U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		want = append(want, core.Op{Kind: kind, U: u, V: v})
	}
	for i := uint64(0); i < 100; i++ {
		append1(core.OpInsert, i, i+1)
	}
	batch := make(core.Batch, 50)
	for i := range batch {
		batch[i] = core.Op{Kind: core.OpInsert, U: uint64(i) + 1000, V: uint64(i) + 2000}
	}
	if err := w.LogBatch(batch); err != nil {
		t.Fatal(err)
	}
	want = append(want, batch...)

	r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainReader(t, r)
	if len(got) != len(want) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(want))
	}

	// More appends after catch-up, spanning a rotation.
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	append1(core.OpDelete, 3, 4)
	append1(core.OpInsert, 7, 8)
	got = append(got, drainReader(t, r)...)
	if len(got) != len(want) {
		t.Fatalf("after rotation decoded %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if r.Pos() != w.TailPosition() {
		t.Fatalf("reader at %+v, tail %+v", r.Pos(), w.TailPosition())
	}
}

// TestOpenReaderUnservable pins the snapshot-fallback signals: the zero
// position, a compacted segment, a position past the tail or past a
// sealed segment's end, and a position inside a frame all report
// ErrCompacted.
func TestOpenReaderUnservable(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.OpenReader(Position{}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("zero position: %v, want ErrCompacted", err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveSegmentsBefore(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted segment: %v, want ErrCompacted", err)
	}
	if _, err := w.OpenReader(Position{Seg: cut, Off: 1 << 30}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("past tail: %v, want ErrCompacted", err)
	}

	// Segment cut sealed with one frame, the tail segment holding one.
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	sealedEnd := w.TailPosition()
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 5, V: 6}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pos  Position
	}{
		{"inside a sealed segment's frame", Position{Seg: cut, Off: SegmentDataStart + 1}},
		{"past a sealed segment's end", Position{Seg: cut, Off: 5000}},
		{"inside a tail segment's frame", Position{Seg: cut + 1, Off: SegmentDataStart + 1}},
	} {
		if _, err := w.OpenReader(tc.pos); !errors.Is(err, ErrCompacted) {
			t.Errorf("%s: %v, want ErrCompacted", tc.name, err)
		}
	}
	for _, pos := range []Position{{Seg: cut, Off: SegmentDataStart}, sealedEnd, w.TailPosition()} {
		r, err := w.OpenReader(pos)
		if err != nil {
			t.Fatalf("frame start %+v: %v", pos, err)
		}
		r.Close()
	}
}

// TestReaderDamageIsCorrupt: a bad frame or header in a sealed segment
// ahead of a reader fails Next with core.ErrCorrupt naming the segment
// file and the bad byte's offset, as replay reports it.
func TestReaderDamageIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inFrame bool // flip a payload byte of segment 2's second frame, else its magic
	}{
		{"second frame's payload", true},
		{"header magic", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, Options{})
			defer w.Close()
			if err := w.LogBatch(core.Batch{}.Insert(1, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
			if err := w.LogBatch(core.Batch{}.Insert(3, 4)); err != nil {
				t.Fatal(err)
			}
			second := w.TailPosition().Off
			if err := w.LogBatch(core.Batch{}.Insert(5, 6)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
			flip, wantOff := int64(0), int64(0)
			if tc.inFrame {
				flip, wantOff = second+2, second
			}
			path := segmentPath(dir, 2)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[flip] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for {
				_, _, err = r.Next()
				if err != nil {
					break
				}
			}
			var ce *core.CorruptError
			if !errors.Is(err, core.ErrCorrupt) || !errors.As(err, &ce) {
				t.Fatalf("Next: %v, want core.ErrCorrupt", err)
			}
			if ce.Source != filepath.Base(path) || ce.Offset != wantOff {
				t.Fatalf("corruption at %s offset %d, want %s offset %d", ce.Source, ce.Offset, filepath.Base(path), wantOff)
			}
		})
	}
}

// TestPinBlocksCompaction pins the retention-floor contract:
// RemoveSegmentsBefore clamps its cut to the lowest held pin and
// reverts to the requested cut once pins move or release.
func TestPinBlocksCompaction(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 4; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: uint64(i), V: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	segCount := func() int {
		segs, err := listSegments(vfs.OS, w.dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	if got := segCount(); got != 5 {
		t.Fatalf("segments = %d, want 5", got)
	}

	pin := w.Pin(1)
	if floor, held := w.RetentionFloor(); !held || floor != 1 {
		t.Fatalf("floor = %d,%v, want 1,true", floor, held)
	}
	cur := w.TailPosition().Seg
	if err := w.RemoveSegmentsBefore(cur); err != nil {
		t.Fatal(err)
	}
	if got := segCount(); got != 5 {
		t.Fatalf("pinned compaction removed segments: %d left, want 5", got)
	}

	pin.Move(3)
	pin.Move(1) // floors never move backwards
	if got := pin.seg; got != 3 {
		t.Fatalf("pin at %d, want 3", got)
	}
	if err := w.RemoveSegmentsBefore(cur); err != nil {
		t.Fatal(err)
	}
	if got := segCount(); got != 3 {
		t.Fatalf("segments = %d, want 3 (>=3 retained)", got)
	}

	pin.Release()
	if _, held := w.RetentionFloor(); held {
		t.Fatal("floor still held after release")
	}
	if err := w.RemoveSegmentsBefore(cur); err != nil {
		t.Fatal(err)
	}
	if got := segCount(); got != 1 {
		t.Fatalf("segments = %d, want 1", got)
	}
}

// TestRemoveSegmentsBeforeRace is the regression test for the
// unlock-before-scan bug: Rotate, RemoveSegmentsBefore and a pinned
// tail reader race freely; the reader must never see its segment
// unlinked (no ErrCompacted, no ENOENT) and every decoded frame must
// validate. Run under -race this also proves the locking discipline.
func TestRemoveSegmentsBeforeRace(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	pin := w.Pin(1)
	defer pin.Release()
	r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var appendErr, compactErr atomic.Value
	wg.Add(2)
	go func() { // writer: appends force frequent size-based rotations
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
				appendErr.Store(err)
				return
			}
		}
	}()
	go func() { // compactor: tries to delete everything below the current segment
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.RemoveSegmentsBefore(w.TailPosition().Seg); err != nil {
				compactErr.Store(err)
				return
			}
		}
	}()

	// Reader: continuously consumes and validates from the pinned
	// position; the pin must keep every byte it needs on disk.
	deadline := time.Now().Add(300 * time.Millisecond)
	var ops []core.Op
	for time.Now().Before(deadline) {
		chunk, _, err := r.Next()
		if errors.Is(err, ErrNoData) {
			continue
		}
		if err != nil {
			t.Errorf("pinned reader failed: %v", err)
			break
		}
		if ops, err = AppendChunkOps(chunk, ops[:0]); err != nil {
			t.Errorf("chunk validation failed: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err, _ := appendErr.Load().(error); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err, _ := compactErr.Load().(error); err != nil {
		t.Fatalf("compactor: %v", err)
	}
}

// TestCloseStopsFlusher: under either policy a WAL writes only on its
// callers' goroutines, so no goroutine outlives Close.
func TestCloseStopsFlusher(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		w, err := Open(t.TempDir(), Options{Sync: []SyncPolicy{SyncAlways, SyncNone}[i%2]})
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < 64; j++ {
			if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: j, V: j + 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); !st.Closed {
			t.Fatal("Stats().Closed = false after Close")
		}
	}
	// Poll a little to absorb unrelated runtime goroutines settling.
	for wait := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("goroutines: %d before, %d after closing all WALs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseIdempotent — double Close stays nil and appends after Close
// fail typed.
func TestCloseIdempotent(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 3, V: 4}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := w.RemoveSegmentsBefore(99); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
}

// TestReaderChunkOversizedFrame checks a frame larger than the chunk
// budget is still returned whole.
func TestReaderChunkOversizedFrame(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Wide ids (about 19 encoded bytes an op) make the one frame of
	// maxBatchOps ops wider than a chunk; small ids would not.
	big := make(core.Batch, maxBatchOps)
	for i := range big {
		big[i] = core.Op{Kind: core.OpInsert, U: 1<<62 | uint64(i), V: 1<<63 | uint64(i)*3}
	}
	if err := w.LogBatch(big); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Bytes <= readerChunkBytes {
		t.Fatalf("logged frame is %d bytes, want more than a %d-byte chunk", st.Bytes, readerChunkBytes)
	}
	r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainReader(t, r)
	if len(got) != len(big) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(big))
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], big[i])
		}
	}
}

// TestAppendChunkOpsRejectsDamage — a shipped chunk with a flipped bit
// or truncated tail must be rejected, not partially applied silently.
func TestAppendChunkOpsRejectsDamage(t *testing.T) {
	frame := encodeBatchFrame(nil, core.Batch{}.Insert(100, 200))
	if _, err := AppendChunkOps(frame, nil); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped payload bit", func(b []byte) []byte { b[2] ^= 0x40; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-2] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0x7F) }},
	} {
		b := tc.mut(append([]byte(nil), frame...))
		if _, err := AppendChunkOps(b, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestReaderMatchesReplay is the differential test of the two paths
// that read a log: a Reader drained from the first record while a
// seeded op stream is logged ships, decoded with AppendChunkOps, the
// ops Replay reads back from the same directory, and both equal the
// ops logged. The stream has frames that straddle replay's first chunk
// boundary, one frame wider than a chunk, size-driven and explicit
// rotations, and a record-free segment.
func TestReaderMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 1 << 20})
	defer w.Close()
	r, err := w.OpenReader(Position{Seg: 1, Off: SegmentDataStart})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rnd := rng(42)
	var logged, shipped core.Batch
	straddled, wide := false, false
	for i := 0; i < 400; i++ {
		n := 1 + int(rnd.next()%1500)
		if i == 150 {
			n = maxBatchOps // one record wider than a chunk
		}
		b := make(core.Batch, n)
		for j := range b {
			// Widths from one to ten varint bytes vary the frame sizes.
			b[j] = core.Op{Kind: core.OpKind(1 + rnd.next()%2), U: rnd.next() >> (rnd.next() % 64), V: rnd.next() >> (rnd.next() % 64)}
		}
		start := w.TailPosition()
		if err := w.LogBatch(b); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, b...)
		if end := w.TailPosition(); end.Seg == start.Seg {
			straddled = straddled || (start.Off < SegmentDataStart+readerChunkBytes && end.Off > SegmentDataStart+readerChunkBytes)
			wide = wide || end.Off-start.Off > readerChunkBytes
		}
		switch rnd.next() % 16 {
		case 0:
			if _, err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		case 1: // two rotations leave a segment with no record
			for k := 0; k < 2; k++ {
				if _, err := w.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rnd.next()%3 == 0 {
			shipped = append(shipped, drainReader(t, r)...)
		}
	}
	shipped = append(shipped, drainReader(t, r)...)
	if !straddled || !wide {
		t.Fatalf("stream exercised straddle=%v wide=%v, want both", straddled, wide)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, stats := replayOps(t, dir)
	if stats.TornBytes != 0 || stats.Segments < 4 {
		t.Fatalf("replay read %d segments with %d torn bytes, want several and none", stats.Segments, stats.TornBytes)
	}
	for name, got := range map[string]core.Batch{"reader": shipped, "replay": replayed} {
		if len(got) != len(logged) {
			t.Fatalf("%s delivered %d ops, %d were logged", name, len(got), len(logged))
		}
		for i := range logged {
			if got[i] != logged[i] {
				t.Fatalf("%s op %d = %+v, logged %+v", name, i, got[i], logged[i])
			}
		}
	}
}

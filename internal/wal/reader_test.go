package wal

import (
	"errors"
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
		if err := w.Append(kind, u, v); err != nil {
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
	if err := w.AppendBatch(batch); err != nil {
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
// position, a compacted segment, and a position past the tail all
// report ErrCompacted.
func TestOpenReaderUnservable(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.OpenReader(Position{}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("zero position: %v, want ErrCompacted", err)
	}
	if err := w.Append(core.OpInsert, 1, 2); err != nil {
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
		if err := w.Append(core.OpInsert, uint64(i), uint64(i+1)); err != nil {
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
	cur := w.Segment()
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
			if err := w.Append(core.OpInsert, i, i+1); err != nil {
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
			if err := w.RemoveSegmentsBefore(w.Segment()); err != nil {
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

// TestCloseStopsFlusher pins the SyncAsync lifecycle: Close must not
// return until the background flusher has exited, so WALs do not leak
// goroutines and no write can land after the segment file closes.
func TestCloseStopsFlusher(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		w, err := Open(t.TempDir(), Options{Sync: SyncAsync})
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < 64; j++ {
			if err := w.Append(core.OpInsert, j, j+1); err != nil {
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
	// The flushers must be gone synchronously; poll a little anyway to
	// absorb unrelated runtime goroutines settling.
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
	w, err := Open(t.TempDir(), Options{Sync: SyncAsync})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(core.OpInsert, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append(core.OpInsert, 3, 4); !errors.Is(err, ErrClosed) {
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
	big := make(core.Batch, maxBatchOps)
	for i := range big {
		big[i] = core.Op{Kind: core.OpInsert, U: uint64(i), V: uint64(i) * 3}
	}
	if err := w.AppendBatch(big); err != nil {
		t.Fatal(err)
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

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
)

// TestCheckpointInterleavedWithBatches pins the checkpoint/ApplyBatch
// contract end to end: checkpoints are taken concurrently with large
// multi-shard batches, and both the checkpoint snapshots and the final
// snapshot-plus-log-tail recovery must be batch-atomic — a half-applied
// batch in a checkpoint, or a cut that splits a batch's partitions
// across the rotation inconsistently with the snapshot, would make the
// recovered graph diverge from the logged one.
func TestCheckpointInterleavedWithBatches(t *testing.T) {
	const (
		columns = 20
		nodes   = 2048
	)
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	g := sharded.New(sharded.Config{Shards: 8, WAL: w})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tag := uint64(0); tag < columns; tag++ {
			b := make(core.Batch, 0, nodes)
			for u := uint64(0); u < nodes; u++ {
				b = b.Insert(u, tag)
			}
			g.ApplyBatch(b)
		}
	}()

	// Checkpoints race the batch stream; each rotates the log and
	// serializes a frozen view.
	for i := 0; i < 12; i++ {
		if _, err := Checkpoint(g, w); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := g.LogErr(); err != nil {
		t.Fatalf("wal log error: %v", err)
	}
	// One final checkpoint after the stream so recovery exercises
	// snapshot + a (possibly empty) tail.
	if _, err := Checkpoint(g, w); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}

	rec, _, err := Recover(dir, sharded.Config{Shards: 4})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.NumEdges() != columns*nodes {
		t.Fatalf("recovered %d edges, want %d", rec.NumEdges(), columns*nodes)
	}
	for tag := uint64(0); tag < columns; tag++ {
		for u := uint64(0); u < nodes; u++ {
			if !rec.HasEdge(u, tag) {
				t.Fatalf("recovered graph missing ⟨%d,%d⟩", u, tag)
			}
		}
	}
}

// TestZeroFilledTailAfterBatchIsTorn pins the tear rule for large
// writes: batch records (and group commits) are far bigger than the
// lone-op tear window, and a crash on a filesystem that
// extends the file before the data lands leaves a zero-filled tail.
// That tail cannot hold acknowledged records — every record starts
// with a nonzero length byte — so replay must drop it as a tear and
// Open must truncate it, not refuse recovery.
func TestZeroFilledTailAfterBatchIsTorn(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var b core.Batch
	for i := uint64(0); i < 1000; i++ {
		b = b.Insert(i, i+1)
	}
	if err := w.LogBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const zeros = 10 << 10
	if _, err := f.Write(make([]byte, zeros)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stats, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatalf("Replay over zero tail: %v", err)
	}
	if stats.Records != 1000 || stats.TornBytes != zeros {
		t.Fatalf("Replay = %+v, want 1000 records and %d torn bytes", stats, zeros)
	}

	// Reopen truncates the zeros and the log appends cleanly.
	w2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open over zero tail: %v", err)
	}
	if err := w2.LogBatch(core.Batch{{Kind: core.OpInsert, U: 7, V: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err = Replay(dir, 0, nil)
	if err != nil || stats.Records != 1001 || stats.TornBytes != 0 {
		t.Fatalf("Replay after reopen = %+v, %v; want 1001 clean records", stats, err)
	}

	// Zeros followed by intact data are NOT a tear: that shape means
	// damage with acknowledged records after it.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeBatchFrame(nil, core.Batch{}.Insert(9, 10))
	data = append(data, bytes.Repeat([]byte{0}, 64)...)
	data = append(data, frame...)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("zeros followed by intact data replayed as %v, want ErrCorrupt", err)
	}
}

// TestCRCValidMalformedFrameBeforeZeroTailIsCorrupt pins the limit of
// the zero-tail rule: a frame whose CRC verifies but whose body is
// malformed (here: an unknown op tag) was durably written exactly as
// some writer produced it — possibly acknowledged — so a zero tail
// after it must NOT allow replay to silently skip the frame as a tear.
func TestCRCValidMalformedFrameBeforeZeroTailIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A correctly framed record with a valid CRC over an unknown op.
	payload := []byte{0xEE, 0x01, 0x02}
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, make([]byte, 4<<10)...) // zero tail past the lone-op window
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("CRC-valid malformed frame + zero tail replayed as %v, want ErrCorrupt", err)
	}
}

// TestCheckpointDoesNotBlockWriters verifies the new lock discipline:
// the checkpoint freeze is brief and the serialization holds no shard
// locks, so single-edge writers keep landing while a checkpoint's
// snapshot is being written out.
func TestCheckpointDoesNotBlockWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	g := sharded.New(sharded.Config{Shards: 4, WAL: w})
	for u := uint64(0); u < 20000; u++ {
		g.InsertEdge(u%500, u)
	}

	stop := make(chan struct{})
	started := make(chan struct{})
	var writes int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := uint64(0); ; u++ {
			select {
			case <-stop:
				return
			default:
				g.InsertEdge(1_000_000+u, 1)
				if writes++; writes == 1 {
					close(started)
				}
			}
		}
	}()
	// Wait for the writer to be mid-stream before checkpointing, so on a
	// 1-CPU box the checkpoints provably overlap live writes.
	<-started
	n0 := g.NumEdges()
	for i := 0; i < 3; i++ {
		if _, err := Checkpoint(g, w); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if writes == 0 {
		t.Fatalf("no writes landed while checkpoints ran")
	}
	if g.NumEdges() < n0 {
		t.Fatalf("edge count went backwards under checkpoints")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}
}

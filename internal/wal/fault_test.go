package wal

// Storage-failure behaviour of the live WAL: injected ENOSPC/EIO must
// fail the triggering append (and every group-commit follower riding
// the same fsync), poison the log against silent later acks, and leave
// the on-disk state recoverable. Checkpoint failures must never
// destroy the previous recovery source.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// TestAppendENOSPCPoisons: a full disk fails the append with the real
// errno, flips Stats().Failed, and fail-fasts every later append.
func TestAppendENOSPCPoisons(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(t.TempDir(), Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(core.OpInsert, 1, 2); err != nil {
		t.Fatalf("append before fault: %v", err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), Err: syscall.ENOSPC})
	if err := w.Append(core.OpInsert, 3, 4); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: want ENOSPC, got %v", err)
	}
	if !w.Stats().Failed {
		t.Fatal("Stats().Failed clear after poisoning write failure")
	}
	// Sticky: the WAL refuses further appends even after the disk
	// recovers — the log may have lost bytes and must be reopened.
	ffs.ClearFault()
	if err := w.Append(core.OpInsert, 5, 6); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after poisoning: want sticky ENOSPC, got %v", err)
	}
	if err := w.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err(): want ENOSPC, got %v", err)
	}
}

// TestCloseAfterENOSPCReturnsStickyError: Close of a poisoned WAL returns
// the sticky error yet still releases the directory lock, and a second
// Close returns nil.
func TestCloseAfterENOSPCReturnsStickyError(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(dir, Options{Sync: SyncNone, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), Err: syscall.ENOSPC})
	if err := w.Append(core.OpInsert, 1, 2); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: want ENOSPC, got %v", err)
	}
	ffs.ClearFault()
	if err := w.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close of a poisoned wal: want the sticky ENOSPC, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after closing a poisoned wal (LOCK still held?): %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncFailureFailsGroupCommitFollowers: when the leader's fsync
// fails, every concurrent appender in that group commit must see the
// error — none of their records were made durable, so none may ack.
func TestFsyncFailureFailsGroupCommitFollowers(t *testing.T) {
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(core.OpInsert, 0, 0); err != nil {
		t.Fatal(err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpSync.Mask(), Err: syscall.EIO})

	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(core.OpInsert, uint64(i), uint64(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("writer %d: want EIO, got %v (a follower acked without a durable frame)", i, err)
		}
	}
}

// TestShortWriteTornTailRecovers: a write cut short by the disk leaves
// a torn record; reopening truncates it and recovery yields exactly
// the acked prefix.
func TestShortWriteTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := w.Append(core.OpInsert, i, i+100); err != nil {
			t.Fatal(err)
		}
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), Err: syscall.ENOSPC, Short: 3})
	if err := w.Append(core.OpInsert, 6, 106); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write: want ENOSPC, got %v", err)
	}
	w.Close() // poisoned close; flock released regardless

	g, stats, err := Recover(dir, sharded.Config{})
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if stats.Replay.TornBytes == 0 {
		t.Fatal("expected a torn tail from the short write")
	}
	if g.NumEdges() != 5 || g.HasEdge(6, 106) {
		t.Fatalf("recovered %d edges (want the 5 acked; torn record admitted=%v)",
			g.NumEdges(), g.HasEdge(6, 106))
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer w2.Close()
	if err := w2.Append(core.OpInsert, 7, 107); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestCheckpointENOSPCLeavesPreviousCheckpoint (satellite): a full
// disk while cutting a snapshot must leave no partial checkpoint file
// behind and keep the previous checkpoint as the recovery source.
func TestCheckpointENOSPCLeavesPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := sharded.New(sharded.Config{})
	apply := func(u, v uint64) {
		g.ApplyBatch(core.Batch{{Kind: core.OpInsert, U: u, V: v}})
		if err := w.Append(core.OpInsert, u, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		apply(i, i+1)
	}
	first, err := Checkpoint(g, w)
	if err != nil {
		t.Fatalf("baseline checkpoint: %v", err)
	}
	for i := uint64(10); i < 20; i++ {
		apply(i, i+1)
	}

	// Every write to the snapshot temp file hits ENOSPC.
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), PathContains: ".tmp", Err: syscall.ENOSPC})
	if _, err := Checkpoint(g, w); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint on full disk: want ENOSPC, got %v", err)
	}
	ffs.ClearFault()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("partial checkpoint file %s left behind", e.Name())
		}
		if strings.HasSuffix(e.Name(), checkpointSuffix) {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 1 || filepath.Join(dir, snaps[0]) != first {
		t.Fatalf("previous checkpoint not preserved: have %v, want [%s]", snaps, filepath.Base(first))
	}

	// The WAL itself is unpoisoned (only the snapshot write failed):
	// appends still work, and recovery sees everything.
	apply(20, 21)
	if err := w.Sync(); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	rg, _, err := Recover(dir, sharded.Config{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Fatalf("recovered %d edges, want %d", rg.NumEdges(), g.NumEdges())
	}

	// A retry once space frees must succeed and supersede the old one.
	second, err := Checkpoint(g, w)
	if err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if second == first {
		t.Fatalf("retry produced the same checkpoint path %s", second)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("superseded checkpoint %s not removed: %v", filepath.Base(first), err)
	}
}

// TestCheckpointRenameFailureKeepsRecoverySource: a failure at the
// atomic-rename step must also leave the previous checkpoint intact.
func TestCheckpointRenameFailureKeepsRecoverySource(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	w, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := sharded.New(sharded.Config{})
	g.ApplyBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}})
	if err := w.Append(core.OpInsert, 1, 2); err != nil {
		t.Fatal(err)
	}
	first, err := Checkpoint(g, w)
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpRename.Mask(), Err: syscall.EIO, Once: true})
	if _, err := Checkpoint(g, w); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint with failing rename: want EIO, got %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("orphaned temp file %s after rename failure", e.Name())
		}
	}
	if _, err := os.Stat(first); err != nil {
		t.Fatalf("previous checkpoint gone after rename failure: %v", err)
	}
	if _, _, err := Recover(dir, sharded.Config{}); err != nil {
		t.Fatalf("recover after failed rename: %v", err)
	}
}

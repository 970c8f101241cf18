package wal

// The ALICE-style crash-consistency harness. A workload of batches is
// appended through a tracing vfs.FaultFS, so every byte that reached
// the (simulated, ordered) disk is on record. The trace is then
// materialized into a fresh directory truncated at every sampled cut
// point — including cuts inside individual writes, in both power-cut
// shapes (plain truncation and zero-torn extension) — and recovery is
// run against each reconstructed disk. The invariant, per fsync
// policy: recovery yields exactly some prefix of the workload, at
// least the durable floor (every acked batch), or fails with a typed
// core.ErrCorrupt.
// Never a hole, never a partially applied batch, never a panic.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// ccBarrier marks a durability point: after trace event index ev, the
// first `batches` workload batches must survive any later crash.
type ccBarrier struct {
	ev      int
	batches int
}

// ccSig returns a canonical signature of a graph's edge set.
func ccSig(g *sharded.Graph) string {
	var edges []string
	g.ForEachNode(func(u uint64) bool {
		g.ForEachSuccessor(u, func(v uint64) bool {
			edges = append(edges, fmt.Sprintf("%d>%d", u, v))
			return true
		})
		return true
	})
	sort.Strings(edges)
	return strings.Join(edges, ",")
}

// ccMapSig returns the same canonical signature for a map mirror.
func ccMapSig(edges map[[2]uint64]bool) string {
	var out []string
	for e := range edges {
		out = append(out, fmt.Sprintf("%d>%d", e[0], e[1]))
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func TestCrashConsistencySyncAlways(t *testing.T) { runCrashHarness(t, SyncAlways) }
func TestCrashConsistencySyncNone(t *testing.T)   { runCrashHarness(t, SyncNone) }

func runCrashHarness(t *testing.T, policy SyncPolicy) {
	const batches = 96
	rng := rand.New(rand.NewSource(0xC0FFEE + int64(policy)))

	srcDir := filepath.Join(t.TempDir(), "wal")
	ffs := vfs.NewFaultFS(nil)
	ffs.StartTrace()
	w, err := Open(srcDir, Options{Sync: policy, SegmentBytes: 4 << 10, FS: ffs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// The workload: random insert/delete batches applied to a mirror
	// graph (for checkpointing and prefix signatures) and appended to
	// the log. sigs[k] is the state after the first k batches.
	mirror := sharded.New(sharded.Config{})
	edges := make(map[[2]uint64]bool)
	sigs := make([]string, 0, batches+1)
	sigs = append(sigs, "")
	ackEvents := make([]int, 0, batches) // trace length when batch i was acked
	barriers := []ccBarrier{{0, 0}}

	for i := 0; i < batches; i++ {
		n := 1 + rng.Intn(8)
		b := make(core.Batch, 0, n)
		for j := 0; j < n; j++ {
			u, v := uint64(rng.Intn(24)), uint64(rng.Intn(24))
			kind := core.OpInsert
			if rng.Intn(10) < 3 {
				kind = core.OpDelete
			}
			b = append(b, core.Op{Kind: kind, U: u, V: v})
			if kind == core.OpInsert {
				edges[[2]uint64{u, v}] = true
			} else {
				delete(edges, [2]uint64{u, v})
			}
		}
		mirror.ApplyBatch(b)
		sigs = append(sigs, ccMapSig(edges))
		if err := w.AppendBatch(b); err != nil {
			t.Fatalf("AppendBatch %d: %v", i, err)
		}
		ackEvents = append(ackEvents, ffs.TraceLen())

		switch {
		case i == batches/2:
			// A checkpoint mid-workload traces the snapshot rename and
			// compaction dance; once it returns, everything so far is
			// recoverable from the snapshot alone.
			if _, err := Checkpoint(mirror, w); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			barriers = append(barriers, ccBarrier{ffs.TraceLen(), i + 1})
		case i%9 == 8:
			if err := w.Sync(); err != nil {
				t.Fatalf("Sync after batch %d: %v", i, err)
			}
			barriers = append(barriers, ccBarrier{ffs.TraceLen(), i + 1})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	barriers = append(barriers, ccBarrier{ffs.TraceLen(), batches})

	if got := ccSig(mirror); got != sigs[batches] {
		t.Fatalf("mirror signature diverged from map mirror")
	}

	events := ffs.Trace()

	// floor(cutEvents) is how many leading batches any crash at that
	// cut must preserve. Sync barriers and acks both bound it: an ack
	// implies the bytes were written before it (SyncAlways synced them;
	// SyncNone wrote them — the ordered-disk model makes written bytes
	// durable).
	floor := func(cutEvents int) int {
		fl := 0
		for _, b := range barriers {
			if b.ev <= cutEvents && b.batches > fl {
				fl = b.batches
			}
		}
		for i, ev := range ackEvents {
			if ev <= cutEvents && i+1 > fl {
				fl = i + 1
			}
		}
		return fl
	}

	// Cut plan: every event boundary, plus intra-write cuts (three
	// offsets, two tear shapes) on every traced write. Short mode
	// samples the boundaries down and keeps one intra-write shape.
	type cut struct {
		name   string
		events []vfs.Event
		floor  int
	}
	var cuts []cut
	boundaryStep := 1
	if testing.Short() {
		boundaryStep = 5
	}
	for i := 0; i <= len(events); i += boundaryStep {
		cuts = append(cuts, cut{
			name:   fmt.Sprintf("boundary-%d", i),
			events: events[:i],
			floor:  floor(i),
		})
	}
	for i, ev := range events {
		if ev.Op != vfs.OpWrite || len(ev.Data) < 2 {
			continue
		}
		// Cut at both edges and at eighths of the write, so a tear
		// inside a large write (a checkpoint's snapshot) is covered.
		var offs []int
		if testing.Short() {
			offs = []int{len(ev.Data) / 2}
		} else {
			offs = []int{1, len(ev.Data) - 1}
			for k := len(ev.Data) / 8; k < len(ev.Data); k += max(1, len(ev.Data)/8) {
				offs = append(offs, k)
			}
		}
		seen := make(map[int]bool)
		for _, k := range offs {
			if k <= 0 || k >= len(ev.Data) || seen[k] {
				continue
			}
			seen[k] = true
			partial := vfs.Event{Op: vfs.OpWrite, Path: ev.Path, Off: ev.Off, Data: ev.Data[:k]}
			base := append(append([]vfs.Event{}, events[:i]...), partial)
			fl := floor(i) // the torn write itself was never acked whole
			cuts = append(cuts, cut{
				name:   fmt.Sprintf("torn-trunc-%d-%d", i, k),
				events: base,
				floor:  fl,
			})
			if !testing.Short() {
				zero := append(append([]vfs.Event{}, base...),
					vfs.Event{Op: vfs.OpTruncate, Path: ev.Path, Size: ev.Off + int64(len(ev.Data))})
				cuts = append(cuts, cut{
					name:   fmt.Sprintf("torn-zero-%d-%d", i, k),
					events: zero,
					floor:  fl,
				})
			}
		}
	}
	if !testing.Short() && len(cuts) < 200 {
		t.Fatalf("only %d cut points; the acceptance bar is 200+", len(cuts))
	}
	t.Logf("policy %v: %d trace events, %d cut points", policy, len(events), len(cuts))

	scratch := t.TempDir()
	for ci, c := range cuts {
		cutDir := filepath.Join(scratch, "cut")
		if err := vfs.MaterializeTrace(c.events, srcDir, cutDir); err != nil {
			t.Fatalf("%s: materialize: %v", c.name, err)
		}
		g, _, err := Recover(cutDir, sharded.Config{})
		if err != nil {
			// The one tolerated failure mode: typed corruption, and only
			// when nothing durable is at stake. Anything untyped — and
			// any loss of the durable floor — is a bug.
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("%s: recovery failed with untyped error: %v", c.name, err)
			}
			if c.floor > 0 {
				t.Fatalf("%s: ErrCorrupt with durable floor %d — acked data stranded: %v", c.name, c.floor, err)
			}
		} else {
			sig := ccSig(g)
			k := -1
			for i, s := range sigs {
				if s == sig {
					k = i
					break
				}
			}
			// Duplicate prefix states are possible (delete undoing an
			// insert); accept any matching index at or past the floor.
			if k < 0 {
				t.Fatalf("%s: recovered state matches no workload prefix (hole or torn batch admitted); %d edges", c.name, g.NumEdges())
			}
			if !sigMatchesAtOrPast(sigs, sig, c.floor) {
				t.Fatalf("%s: recovered prefix %d below durable floor %d (lost acked batches)", c.name, k, c.floor)
			}
			// Periodically prove the post-crash log accepts appends: a
			// server must be able to reopen and write after recovery.
			if ci%8 == 0 {
				w2, err := Open(cutDir, Options{Sync: policy, SegmentBytes: 4 << 10})
				if err != nil {
					t.Fatalf("%s: reopen for append: %v", c.name, err)
				}
				if err := w2.Append(core.OpInsert, 999, 999); err != nil {
					t.Fatalf("%s: append after reopen: %v", c.name, err)
				}
				if err := w2.Close(); err != nil {
					t.Fatalf("%s: close after reopen: %v", c.name, err)
				}
			}
		}
		if err := os.RemoveAll(cutDir); err != nil {
			t.Fatalf("cleanup: %v", err)
		}
		_ = ci
	}
}

// sigMatchesAtOrPast reports whether sig equals some prefix signature
// at index >= floor — the "no acked batch lost" check, tolerant of
// coincidentally identical earlier prefixes.
func sigMatchesAtOrPast(sigs []string, sig string, floor int) bool {
	for i := floor; i < len(sigs); i++ {
		if sigs[i] == sig {
			return true
		}
	}
	return false
}

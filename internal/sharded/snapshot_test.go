package sharded

import (
	"bytes"
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/graphstore"
)

// viewEdgeCount re-counts a view's edges by full iteration; it must
// always equal the epoch-stamped NumEdges.
func viewEdgeCount(v *View) uint64 {
	var n uint64
	v.ForEachNode(func(u uint64) bool {
		n += uint64(len(v.Successors(u)))
		return true
	})
	return n
}

func TestSnapshotFreezesState(t *testing.T) {
	g := New(Config{Shards: 4})
	for u := uint64(0); u < 50; u++ {
		g.InsertEdge(u, u+1)
		g.InsertEdge(u, u+2)
	}
	v := g.Snapshot()
	defer v.Release()
	if v.Epoch() == 0 {
		t.Fatalf("view epoch = 0, want > 0")
	}
	if v.NumEdges() != 100 || v.NumNodes() != 50 {
		t.Fatalf("view counts = %d edges / %d nodes, want 100/50", v.NumEdges(), v.NumNodes())
	}

	// Mutate hard: remove nodes entirely, change adjacency, add new ones.
	for u := uint64(0); u < 25; u++ {
		g.DeleteEdge(u, u+1)
		g.DeleteEdge(u, u+2)
	}
	for u := uint64(25); u < 50; u++ {
		g.InsertEdge(u, 999)
	}
	for u := uint64(100); u < 120; u++ {
		g.InsertEdge(u, 1)
	}

	// The view still shows the epoch state, bit for bit.
	for u := uint64(0); u < 50; u++ {
		if !v.HasEdge(u, u+1) || !v.HasEdge(u, u+2) {
			t.Fatalf("view lost edge of node %d after mutation", u)
		}
		if v.HasEdge(u, 999) {
			t.Fatalf("view sees post-epoch edge ⟨%d,999⟩", u)
		}
		if d := v.Degree(u); d != 2 {
			t.Fatalf("view degree(%d) = %d, want 2", u, d)
		}
	}
	for u := uint64(100); u < 120; u++ {
		if v.HasEdge(u, 1) {
			t.Fatalf("view sees post-epoch node %d", u)
		}
	}
	if n := viewEdgeCount(v); n != 100 {
		t.Fatalf("view iteration counts %d edges, want 100", n)
	}
	if v.NumNodes() != 50 {
		t.Fatalf("view NumNodes changed to %d", v.NumNodes())
	}
	// And the live graph shows the new state.
	if g.NumEdges() != 50+25+20 {
		t.Fatalf("live graph has %d edges, want 95", g.NumEdges())
	}
	if g.CoWBytes() == 0 {
		t.Fatalf("mutating under a live view copied nothing; CoW hook is dead")
	}
}

func TestSnapshotEpochsAndMultipleViews(t *testing.T) {
	g := New(Config{Shards: 2})
	g.InsertEdge(1, 2)
	v1 := g.Snapshot()
	g.InsertEdge(1, 3)
	v2 := g.Snapshot()
	g.DeleteEdge(1, 2)
	v3 := g.Snapshot()
	defer v1.Release()
	defer v2.Release()
	defer v3.Release()

	if !(v1.Epoch() < v2.Epoch() && v2.Epoch() < v3.Epoch()) {
		t.Fatalf("epochs not monotonic: %d %d %d", v1.Epoch(), v2.Epoch(), v3.Epoch())
	}
	if g.LiveViews() != 3 {
		t.Fatalf("LiveViews = %d, want 3", g.LiveViews())
	}
	check := func(v *View, want map[uint64]bool) {
		t.Helper()
		for x, has := range want {
			if got := v.HasEdge(1, x); got != has {
				t.Fatalf("epoch %d: HasEdge(1,%d) = %v, want %v", v.Epoch(), x, got, has)
			}
		}
	}
	g.InsertEdge(1, 9) // keep mutating under all three
	check(v1, map[uint64]bool{2: true, 3: false, 9: false})
	check(v2, map[uint64]bool{2: true, 3: true, 9: false})
	check(v3, map[uint64]bool{2: false, 3: true, 9: false})
	if v1.NumEdges() != 1 || v2.NumEdges() != 2 || v3.NumEdges() != 1 {
		t.Fatalf("edge counts %d/%d/%d, want 1/2/1", v1.NumEdges(), v2.NumEdges(), v3.NumEdges())
	}
}

func TestViewReleaseStopsCoWAndPanicsOnUse(t *testing.T) {
	g := New(Config{Shards: 2})
	for u := uint64(0); u < 32; u++ {
		g.InsertEdge(u, 1)
	}
	v := g.Snapshot()
	v.Release()
	v.Release() // idempotent
	if g.LiveViews() != 0 {
		t.Fatalf("LiveViews = %d after release, want 0", g.LiveViews())
	}
	before := g.CoWBytes()
	for u := uint64(0); u < 32; u++ {
		g.DeleteEdge(u, 1)
	}
	if after := g.CoWBytes(); after != before {
		t.Fatalf("CoW continued after release: %d -> %d", before, after)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("read of released view did not panic")
		}
	}()
	v.HasEdge(0, 1)
}

func TestViewRetainOutlivesRelease(t *testing.T) {
	g := New(Config{Shards: 2})
	g.InsertEdge(1, 2)
	v := g.Snapshot()
	v.Retain() // second holder
	v.Release()
	// One reference remains: the view must still read and still CoW.
	g.DeleteEdge(1, 2)
	if !v.HasEdge(1, 2) {
		t.Fatalf("retained view lost its epoch after the other holder released")
	}
	if g.LiveViews() != 1 {
		t.Fatalf("LiveViews = %d with one reference standing, want 1", g.LiveViews())
	}
	v.Release()
	if g.LiveViews() != 0 {
		t.Fatalf("LiveViews = %d after final release, want 0", g.LiveViews())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Retain of a fully released view did not panic")
		}
	}()
	v.Retain()
}

func TestViewIsReadOnly(t *testing.T) {
	g := New(Config{Shards: 2})
	g.InsertEdge(1, 2)
	v := g.Snapshot()
	defer v.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("InsertEdge on a View did not panic")
		}
	}()
	v.InsertEdge(3, 4)
}

func TestViewSaveRoundTripsUnderMutation(t *testing.T) {
	g := New(Config{Shards: 4})
	for u := uint64(0); u < 200; u++ {
		g.InsertEdge(u%40, u)
	}
	v := g.Snapshot()
	defer v.Release()
	wantEdges := v.NumEdges()

	// Keep mutating while the view serializes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := uint64(0); u < 200; u++ {
			g.DeleteEdge(u%40, u)
			g.InsertEdge(u+1000, 7)
		}
	}()
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatalf("view save: %v", err)
	}
	<-done

	re, err := Load(bytes.NewReader(buf.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatalf("load view snapshot: %v", err)
	}
	if re.NumEdges() != wantEdges {
		t.Fatalf("reloaded %d edges, want %d", re.NumEdges(), wantEdges)
	}
	v.ForEachNode(func(u uint64) bool {
		for _, x := range v.Successors(u) {
			if !re.HasEdge(u, x) {
				t.Errorf("reloaded snapshot missing ⟨%d,%d⟩", u, x)
				return false
			}
		}
		return true
	})
}

// TestSnapshotNeverSeesHalfAppliedBatch is the regression test for the
// checkpoint/ApplyBatch tear: a batch that spans shards applies its
// partitions under separate lock acquisitions, and before snapMu a
// freeze could land between two partitions and expose a half-applied
// batch. Writers apply large multi-shard batches — each inserting one
// "column" ⟨u,tag⟩ for every u — while snapshots are taken
// concurrently; every snapshot must contain each column entirely or
// not at all.
func TestSnapshotNeverSeesHalfAppliedBatch(t *testing.T) {
	const (
		columns = 24
		nodes   = 4096 // ≥ shards*minParallelPartition: exercises the goroutine fan-out path
	)
	g := New(Config{Shards: 16})

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

	for i := 0; i < 40; i++ {
		v := g.Snapshot()
		for tag := uint64(0); tag < columns; tag++ {
			n := 0
			for u := uint64(0); u < nodes; u++ {
				if v.HasEdge(u, tag) {
					n++
				}
			}
			if n != 0 && n != nodes {
				t.Fatalf("snapshot %d observed half-applied batch: column %d has %d/%d edges",
					i, tag, n, nodes)
			}
		}
		done := viewEdgeCount(v)
		if done != v.NumEdges() {
			t.Fatalf("snapshot %d: iterated %d edges, stamped %d", i, done, v.NumEdges())
		}
		v.Release()
		if done == columns*nodes {
			break // writer finished; later snapshots are all identical
		}
	}
	wg.Wait()
}

// TestCheckpointNeverSerializesHalfAppliedBatch drives the same tear
// through Checkpoint itself: checkpoints interleave with large
// multi-shard batches, and every serialized snapshot must hold whole
// columns only.
func TestCheckpointNeverSerializesHalfAppliedBatch(t *testing.T) {
	const (
		columns = 16
		nodes   = 2048
	)
	g := New(Config{Shards: 8})
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
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		re, err := Load(bytes.NewReader(buf.Bytes()), Config{Shards: 4})
		if err != nil {
			t.Fatalf("load checkpoint %d: %v", i, err)
		}
		for tag := uint64(0); tag < columns; tag++ {
			n := 0
			for u := uint64(0); u < nodes; u++ {
				if re.HasEdge(u, tag) {
					n++
				}
			}
			if n != 0 && n != nodes {
				t.Fatalf("checkpoint %d holds half a batch: column %d has %d/%d edges", i, tag, n, nodes)
			}
		}
		if re.NumEdges() == columns*nodes {
			break
		}
	}
	wg.Wait()
}

func TestSnapshotSharesPreImagesAcrossViews(t *testing.T) {
	g := New(Config{Shards: 2})
	for u := uint64(0); u < 16; u++ {
		g.InsertEdge(u, 1)
	}
	v1 := g.Snapshot()
	v2 := g.Snapshot()
	defer v1.Release()
	defer v2.Release()
	before := g.CoWBytes()
	g.DeleteEdge(3, 1) // both views need node 3's pre-image; one copy serves both
	delta := g.CoWBytes() - before
	if want := uint64(16 + 8); delta != want {
		t.Fatalf("CoW delta = %d bytes for one touched node under two views, want %d (shared pre-image)", delta, want)
	}
	if !v1.HasEdge(3, 1) || !v2.HasEdge(3, 1) {
		t.Fatalf("views lost the shared pre-image")
	}
}

func TestSnapshotViewImplementsStoreExample(t *testing.T) {
	// The analytics kernels take a frozen view as a graphstore.Store.
	g := New(Config{Shards: 2})
	g.InsertEdge(1, 2)
	v := g.Snapshot()
	defer v.Release()
	var s graphstore.Store = v
	if !s.HasEdge(1, 2) || s.NumEdges() != 1 {
		t.Fatalf("view state wrong through the Store interface")
	}
}

// TestNoOpMutationsCopyNothing pins what a live view costs a writer:
// nothing for an op that changes nothing, and for the first op that
// changes a node of d successors one pre-image — 16 + 8·d bytes on
// CoWBytes, at most one allocation (a fresh chunk; most pre-images are
// cut from one already there), a slice of exactly d — after which the
// node is free.
func TestNoOpMutationsCopyNothing(t *testing.T) {
	const d = 3
	g := New(Config{Shards: 4})
	// Nodes of one shard, so every first touch below lands in the same
	// overlay map.
	var nodes []uint64
	for u := uint64(1); len(nodes) < 4; u++ {
		if g.shardIndex(u) == g.shardIndex(1) {
			nodes = append(nodes, u)
			for x := uint64(0); x < d; x++ {
				g.InsertEdge(u, x)
			}
		}
	}
	u := nodes[0]
	v := g.Snapshot()
	defer v.Release()
	si := g.shardIndex(u)

	overlaid := func() (n int) {
		for _, ov := range v.overlays {
			n += len(ov)
		}
		return n
	}
	noops := core.Batch{}.Insert(u, 0).Delete(u, 77).Insert(u, 2).Delete(u, 78)
	if a := testing.AllocsPerRun(100, func() {
		if g.InsertEdge(u, 1) || g.DeleteEdge(u, 77) || g.DeleteEdge(9999, 1) || g.ApplyBatch(noops).Applied() != 0 {
			t.Fatal("a no-op changed the graph")
		}
	}); a != 0 || g.CoWBytes() != 0 || overlaid() != 0 {
		t.Fatalf("no-op mutations beside a view: %v allocs/run, CoWBytes %d, %d overlay entries; want 0, 0, 0", a, g.CoWBytes(), overlaid())
	}

	// First effective touch, measured on nodes[2]: the warm-up run of
	// AllocsPerRun spends nodes[1], and with it the overlay map's own
	// first-insert allocation and the shard's first chunk.
	k := 1
	if a := testing.AllocsPerRun(1, func() {
		if !g.DeleteEdge(nodes[k], 0) {
			t.Fatal("delete of a present edge failed")
		}
		k++
	}); a > 1 {
		t.Fatalf("first effective touch of a node: %v allocs, want at most 1 (the pre-image's chunk)", a)
	}
	if got, want := g.CoWBytes(), uint64(2*(16+8*d)); got != want {
		t.Fatalf("CoWBytes = %d after the first touch of two %d-successor nodes, want %d", got, d, want)
	}
	for _, w := range nodes[1:3] {
		if pre := v.overlays[si][w]; len(pre) != d || cap(pre) != d {
			t.Fatalf("pre-image of node %d has len %d cap %d, want %d and %d", w, len(pre), cap(pre), d, d)
		}
	}

	// A no-op on u followed, in the same batch, by the op that changes it.
	before := g.CoWBytes()
	g.ApplyBatch(core.Batch{}.Insert(u, 0).Delete(u, 0))
	if got := g.CoWBytes() - before; got != 16+8*d || len(v.overlays[si][u]) != d {
		t.Fatalf("no-op then effective op on one node: CoWBytes +%d, pre-image of %d; want +%d and %d", got, len(v.overlays[si][u]), 16+8*d, d)
	}

	// Second and later touches of a preserved node are free.
	before = g.CoWBytes()
	if a := testing.AllocsPerRun(100, func() {
		if !g.InsertEdge(u, 0) || !g.DeleteEdge(u, 0) {
			t.Fatal("toggle failed")
		}
	}); a != 0 || g.CoWBytes() != before {
		t.Fatalf("second touch of a preserved node: %v allocs/run, CoWBytes +%d; want 0 and 0", a, g.CoWBytes()-before)
	}

	// A node that did not exist is recorded with a nil pre-image.
	before = g.CoWBytes()
	g.InsertEdge(9999, 1)
	if pre, ok := v.overlays[g.shardIndex(9999)][9999]; !ok || pre != nil || g.CoWBytes()-before != 16 {
		t.Fatalf("new node: overlay entry %v (present %v), CoWBytes +%d; want nil, true, +16", pre, ok, g.CoWBytes()-before)
	}
	if v.NumEdges() != viewEdgeCount(v) || v.HasEdge(9999, 1) || !v.HasEdge(u, 0) {
		t.Fatal("view no longer reads as the graph did at its epoch")
	}
}

// TestCoWSteadyStateAllocatesNothing pins what the copy-on-write store
// is for: once a cycle of Snapshot → 1 024 first-touch mutations →
// Release has warmed each shard's chunks and spare overlay map, every
// further cycle allocates nothing beyond the view handle that a bare
// Snapshot → Release allocates — while still copying every node it
// changes.
func TestCoWSteadyStateAllocatesNothing(t *testing.T) {
	const n, d = 1024, 3
	g := New(Config{Shards: 4})
	for u := uint64(0); u < n; u++ {
		for x := uint64(0); x < d; x++ {
			g.InsertEdge(u, x)
		}
	}
	// Each cycle touches every node once, alternately inserting and
	// deleting ⟨u,d⟩, so every mutation is a node's first in its view.
	insert := true
	cycle := func() {
		v := g.Snapshot()
		for u := uint64(0); u < n; u++ {
			changed := false
			if insert {
				changed = g.InsertEdge(u, d)
			} else {
				changed = g.DeleteEdge(u, d)
			}
			if !changed {
				t.Fatalf("toggle of ⟨%d,%d⟩ changed nothing", u, d)
			}
		}
		insert = !insert
		v.Release()
	}
	// Warm-up: an insert cycle and a delete cycle, so chunks and maps
	// have grown for pre-images of both degrees.
	cycle()
	cycle()
	bare := testing.AllocsPerRun(20, func() { g.Snapshot().Release() })
	before := g.CoWBytes()
	if a := testing.AllocsPerRun(20, cycle); a != bare {
		t.Fatalf("snapshot → %d first touches → release: %v allocs/cycle, a bare snapshot → release %v; want no more", n, a, bare)
	}
	// 21 cycles (AllocsPerRun's warm-up run included), half at each degree.
	if got, want := g.CoWBytes()-before, uint64(21*n*(16+8*d)); got < want {
		t.Fatalf("CoWBytes +%d over 21 cycles, want at least %d: the cycles stopped copying", got, want)
	}
}

// TestCoWStoreBoundedUnderLongView: while one view stays open, short
// views come and go with writes in each. The shards may not recycle
// the chunks the long view could still need, but they may not keep
// them either: the words each store holds stay under a bound that does
// not grow with the number of short views, and the long view and every
// short one read exactly as the graph stood at their epochs.
func TestCoWStoreBoundedUnderLongView(t *testing.T) {
	const n, d, cycles = 1024, 3, 50
	g := New(Config{Shards: 4})
	for u := uint64(0); u < n; u++ {
		for x := uint64(0); x < d; x++ {
			g.InsertEdge(u, x)
		}
	}
	long := g.Snapshot()
	defer long.Release()
	want := saveBytes(t, long)

	held := func(st *cowStore) (words int) {
		for _, w := range st.chunks {
			words += cap(w)
		}
		for _, w := range st.free {
			words += cap(w)
		}
		return words
	}
	const bound = (maxFreeChunks + 1) * chunkWords
	for c := 0; c < cycles; c++ {
		present := c%2 == 1 // ⟨u,d⟩ is toggled by every cycle
		v := g.Snapshot()
		for u := uint64(0); u < n; u++ {
			if present {
				g.DeleteEdge(u, d)
			} else {
				g.InsertEdge(u, d)
			}
		}
		for u := uint64(0); u < n; u += 97 {
			if v.HasEdge(u, d) != present || long.HasEdge(u, d) {
				t.Fatalf("cycle %d: ⟨%d,%d⟩ reads %v in the short view and %v in the long one, want %v and false",
					c, u, d, v.HasEdge(u, d), long.HasEdge(u, d), present)
			}
		}
		v.Release()
		for i := range g.shards {
			if w := held(g.shards[i].cow); w > bound {
				t.Fatalf("cycle %d: shard %d's store holds %d words with one long view open, want at most %d", c, i, w, bound)
			}
		}
	}
	if got := saveBytes(t, long); !bytes.Equal(got, want) {
		t.Fatalf("long view's Save bytes changed after %d short views", cycles)
	}
}

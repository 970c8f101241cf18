package sharded

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"cuckoograph/internal/core"
)

func saveBytes(t *testing.T, v *View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// liveEdgeCount re-counts the live graph's edges by iteration; after a
// Replace it must equal the NumEdges the counters carried over.
func liveEdgeCount(g *Graph) uint64 {
	var n uint64
	g.ForEachNode(func(u uint64) bool {
		n += uint64(len(g.Successors(u)))
		return true
	})
	return n
}

// TestReplaceKeepsFrozenViews: a view taken before a Replace still
// reads the contents of its epoch afterwards — through Save and a CSR
// compiled after the swap, and while views opened after it come and go
// and their writes reuse whatever the shards recycle — while the live
// graph answers from src, epochs keep growing, and a shard-count
// mismatch changes nothing.
func TestReplaceKeepsFrozenViews(t *testing.T) {
	g := New(Config{Shards: 4})
	for u := uint64(0); u < 40; u++ {
		g.InsertEdge(u, u+1)
		g.InsertEdge(u, u+2)
	}
	v := g.Snapshot()
	// Writes between the snapshot and the Replace give the view
	// pre-images in its overlay as well as untouched cells.
	for u := uint64(0); u < 10; u++ {
		g.DeleteEdge(u, u+1)
		g.InsertEdge(u, 500)
	}
	before, edges := saveBytes(t, v), v.NumEdges()

	src := New(Config{Shards: 4})
	for u := uint64(1000); u < 1030; u++ {
		src.InsertEdge(u, 7)
	}
	m0, srcMuts := g.Mutations(), src.Mutations()
	if err := g.Replace(src); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if got, want := g.Mutations(), m0+srcMuts+1; got != want {
		t.Fatalf("Mutations = %d after Replace, want %d", got, want)
	}
	// Write to the new contents, nodes the view knows included.
	for u := uint64(0); u < 20; u++ {
		g.InsertEdge(u, 900)
	}
	g.DeleteEdge(1000, 7)

	if got := saveBytes(t, v); !bytes.Equal(got, before) {
		t.Fatal("view's Save bytes changed across Replace")
	}
	if n := v.CSR().NumEdges(); uint64(n) != edges {
		t.Fatalf("view CSR has %d edges after Replace, want %d", n, edges)
	}
	if !v.HasEdge(20, 21) || v.HasEdge(0, 900) || v.HasEdge(1001, 7) {
		t.Fatal("view reads the replaced contents")
	}

	if g.HasEdge(20, 21) || !g.HasEdge(1001, 7) || !g.HasEdge(3, 900) || g.HasEdge(1000, 7) {
		t.Fatal("live graph does not answer from src and the writes after it")
	}
	if got, want := g.NumEdges(), uint64(30-1+20); got != want || liveEdgeCount(g) != want {
		t.Fatalf("live graph has %d edges (%d by iteration), want %d", got, liveEdgeCount(g), want)
	}
	if got, want := g.NumNodes(), uint64(30-1+20); got != want {
		t.Fatalf("live graph has %d nodes, want %d", got, want)
	}

	// Views after the Replace: each release recycles what the shards
	// hold, and the writes after it reuse that memory.
	for round := uint64(0); round < 3; round++ {
		w := g.Snapshot()
		for u := uint64(0); u < 40; u++ {
			g.InsertEdge(u, 600+round)
		}
		w.Release()
		for u := uint64(0); u < 40; u++ {
			g.InsertEdge(u, 700+round)
		}
		if got := saveBytes(t, v); !bytes.Equal(got, before) {
			t.Fatalf("view's Save bytes changed after %d views opened and released since the Replace", round+1)
		}
	}
	w := g.Snapshot()
	if w.Epoch() <= v.Epoch() {
		t.Fatalf("epoch %d after Replace does not exceed %d before it", w.Epoch(), v.Epoch())
	}
	v.Release()
	w.Release()
	if n := g.LiveViews(); n != 0 {
		t.Fatalf("LiveViews = %d after releasing both views", n)
	}

	// A mismatched shard count is refused and leaves everything as it was.
	small := New(Config{Shards: 2})
	small.InsertEdge(1, 2)
	prev := g.Snapshot()
	state, muts := saveBytes(t, prev), g.Mutations()
	prev.Release()
	if err := g.Replace(small); err == nil {
		t.Fatal("Replace accepted a 2-shard graph into a 4-shard one")
	}
	snap := g.Snapshot()
	defer snap.Release()
	if !bytes.Equal(saveBytes(t, snap), state) || g.Mutations() != muts || !small.HasEdge(1, 2) {
		t.Fatal("a refused Replace changed the graph or consumed src")
	}
}

// TestReplaceUnderConcurrentUse runs Replace against single-op writers,
// multi-shard batches, readers and snapshot takers (run under -race in
// CI). Every view must stay exact — its edges by iteration equal to the
// count stamped at its epoch — epochs must keep growing, and once the
// load stops the counters must agree with the contents.
func TestReplaceUnderConcurrentUse(t *testing.T) {
	const shards, space = 4, 300
	g := New(Config{Shards: shards})
	for u := uint64(0); u < space; u++ {
		g.InsertEdge(u, u+1)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func(r *rand.Rand)) {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f(r)
			}
		}(int64(rand.Int()))
	}
	for w := 0; w < 2; w++ {
		run(func(r *rand.Rand) {
			if r.Intn(3) == 0 {
				g.DeleteEdge(uint64(r.Intn(space)), uint64(r.Intn(space)))
			} else {
				g.InsertEdge(uint64(r.Intn(space)), uint64(r.Intn(space)))
			}
		})
	}
	run(func(r *rand.Rand) {
		// Big enough to span every shard and fan out across them.
		var b core.Batch
		for i := 0; i < 4*minParallelPartition; i++ {
			b = b.Insert(uint64(r.Intn(space)), uint64(r.Intn(space)))
		}
		g.ApplyBatch(b)
	})
	run(func(r *rand.Rand) {
		g.HasEdge(uint64(r.Intn(space)), uint64(r.Intn(space)))
		g.AppendNodes(nil)
	})
	var lastEpoch uint64
	run(func(r *rand.Rand) {
		v := g.Snapshot()
		defer v.Release()
		if v.Epoch() <= lastEpoch {
			t.Errorf("epoch %d after %d", v.Epoch(), lastEpoch)
		}
		lastEpoch = v.Epoch()
		v.Save(io.Discard)
		if n := viewEdgeCount(v); n != v.NumEdges() {
			t.Errorf("view at epoch %d iterates %d edges, stamped %d", v.Epoch(), n, v.NumEdges())
		}
	})

	for i := 0; i < 30; i++ {
		src := New(Config{Shards: shards})
		for u := uint64(0); u < space; u += uint64(1 + i%3) {
			src.InsertEdge(u, uint64(i))
		}
		if err := g.Replace(src); err != nil {
			t.Errorf("replace %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if n := liveEdgeCount(g); n != g.NumEdges() {
		t.Fatalf("live graph iterates %d edges, NumEdges says %d", n, g.NumEdges())
	}
	if n := uint64(len(g.AppendNodes(nil))); n != g.NumNodes() {
		t.Fatalf("live graph lists %d nodes, NumNodes says %d", n, g.NumNodes())
	}
	if n := g.LiveViews(); n != 0 {
		t.Fatalf("LiveViews = %d after every view was released", n)
	}
}

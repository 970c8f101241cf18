package analytics

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"cuckoograph/internal/sharded"
)

// TestFlatInnerLoopAllocs pins the flat BFS and PageRank kernels at
// "the result and nothing else": their loops must not touch the heap, and
// their traversal state comes from the pool. A regression here silently
// erodes the CSR speedup, so it fails the build rather than a benchmark.
func TestFlatInnerLoopAllocs(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		testFlatInnerLoopAllocs(t, func(g *sharded.Graph) {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 4000; i++ {
				g.InsertEdge(uint64(rng.Intn(300)), uint64(rng.Intn(300)))
			}
		})
	})
	// A chain of 8 hubs, each fanning out to 64 nodes that have no
	// out-edges of their own: 8 sources, 512 destination-only nodes, all
	// reachable from hub 0 — a traversal that outruns the source count.
	t.Run("destination-heavy", func(t *testing.T) {
		testFlatInnerLoopAllocs(t, func(g *sharded.Graph) {
			for hub := uint64(0); hub < 8; hub++ {
				g.InsertEdge(hub, (hub+1)%8)
				for leaf := uint64(0); leaf < 64; leaf++ {
					g.InsertEdge(hub, 1000+hub*64+leaf)
				}
			}
		})
	})
}

var resultSink map[uint64]float64

// poolKeeps reports whether a sync.Pool hands back what it was just
// given. Under the race detector it drops one Put in four at random, and
// an allocation count of pooled code then says nothing.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

func testFlatInnerLoopAllocs(t *testing.T, fill func(g *sharded.Graph)) {
	g := sharded.New(sharded.Config{Shards: 4})
	fill(g)
	v := g.Snapshot()
	defer v.Release()
	idx := v.CSR()
	if idx.NumSources() == 0 {
		t.Fatal("test graph compiled empty")
	}

	// Warm, the whole kernel allocates what it returns: its marks and
	// its queue come from the pool, sized for every node it can enqueue.
	// AllocsPerRun's own warm-up call fills the pool, and the collector
	// is off so that it cannot empty it between runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pooled := poolKeeps()
	root := idx.IDOf(0)
	if a := testing.AllocsPerRun(20, func() { bfsFlat(idx, root) }); pooled && a != 1 {
		t.Errorf("flat BFS: %v allocs/run, want 1 (the result)", a)
	}
	if got := len(bfsFlat(idx, root)); got < 2 {
		t.Fatalf("flat BFS visited %d nodes; traversal did not run", got)
	}

	// PageRank likewise allocates its result map and nothing else: as
	// many allocations as building a map of that size alone.
	srcs := idx.NumSources()
	rank := make([]float64, srcs)
	resultOnly := testing.AllocsPerRun(20, func() {
		out := make(map[uint64]float64, srcs)
		for u, r := range rank {
			out[idx.IDOf(int32(u))] = r
		}
		resultSink = out // escapes, as the kernel's result does
	})
	if a := testing.AllocsPerRun(20, func() { pageRankFlat(idx, 5) }); pooled && a != resultOnly {
		t.Errorf("flat PageRank: %v allocs/run, want %v (the result map)", a, resultOnly)
	}
}

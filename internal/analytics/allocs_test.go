package analytics

import (
	"math/rand"
	"testing"

	"cuckoograph/internal/sharded"
)

// TestFlatInnerLoopAllocs pins the flat BFS and PageRank inner loops
// allocation-free: with the traversal state pre-sized, a full pass over
// the index must not touch the heap. A regression here silently erodes
// the CSR speedup, so it fails the build rather than a benchmark.
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

func testFlatInnerLoopAllocs(t *testing.T, fill func(g *sharded.Graph)) {
	g := sharded.New(sharded.Config{Shards: 4})
	fill(g)
	v := g.Snapshot()
	defer v.Release()
	idx := v.CSR()
	if idx.NumSources() == 0 {
		t.Fatal("test graph compiled empty")
	}

	visited := newBitset(idx.NumNodes())
	queue := make([]int32, 0, idx.NumNodes())
	if a := testing.AllocsPerRun(50, func() {
		for i := range visited {
			visited[i] = 0
		}
		queue = bfsFlatInto(idx, 0, visited, queue[:0])
	}); a != 0 {
		t.Errorf("flat BFS inner loop: %v allocs/run, want 0", a)
	}
	if len(queue) < 2 {
		t.Fatalf("flat BFS visited %d nodes; traversal did not run", len(queue))
	}
	// The kernels size their own queues for every node they can enqueue:
	// the bitset, the queue and the result, and no regrowth mid-walk.
	root := idx.IDOf(0)
	if a := testing.AllocsPerRun(20, func() { bfsFlat(idx, root) }); a != 3 {
		t.Errorf("flat BFS: %v allocs/run, want 3 (visited, queue, result)", a)
	}
	if got := len(bfsFlat(idx, root)); got != len(queue) {
		t.Fatalf("flat BFS returned %d nodes, inner loop visited %d", got, len(queue))
	}

	rank := make([]float64, idx.NumNodes())
	next := make([]float64, idx.NumNodes())
	if a := testing.AllocsPerRun(20, func() {
		pageRankFlatInto(idx, 5, rank, next)
	}); a != 0 {
		t.Errorf("flat PageRank inner loop: %v allocs/run, want 0", a)
	}
}

package analytics

import (
	"math"
	"math/rand"
	"testing"

	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
)

// The differential harness: every kernel run twice on the same frozen
// view — once through the CSR fast path (the view satisfies
// graphstore.Indexed) and once through the map-based fallback (the view
// wrapped in storeOnly, which hides the capability) — must agree.

// storeOnly wraps a store, hiding every capability interface except
// Store, NodeLister and Degreer. Wrapping an Indexed store forces the
// kernels onto the map-based fallback path: the differential oracle
// for the CSR path.
type storeOnly struct{ S graphstore.Store }

func (w storeOnly) InsertEdge(u, v uint64) bool { return w.S.InsertEdge(u, v) }
func (w storeOnly) HasEdge(u, v uint64) bool    { return w.S.HasEdge(u, v) }
func (w storeOnly) DeleteEdge(u, v uint64) bool { return w.S.DeleteEdge(u, v) }
func (w storeOnly) NumEdges() uint64            { return w.S.NumEdges() }
func (w storeOnly) MemoryUsage() uint64         { return w.S.MemoryUsage() }
func (w storeOnly) Degree(u uint64) int         { return graphstore.Degree(w.S, u) }

func (w storeOnly) ForEachSuccessor(u uint64, fn func(v uint64) bool) {
	w.S.ForEachSuccessor(u, fn)
}

func (w storeOnly) ForEachNode(fn func(u uint64) bool) {
	if nl, ok := w.S.(NodeLister); ok {
		nl.ForEachNode(fn)
	}
}

const floatTol = 1e-9

func approxEqual(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= floatTol || d <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}

func sameFloatMap(t *testing.T, name string, flat, slow map[uint64]float64) {
	t.Helper()
	if len(flat) != len(slow) {
		t.Fatalf("%s: flat has %d entries, fallback %d", name, len(flat), len(slow))
	}
	for u, fv := range flat {
		sv, ok := slow[u]
		if !ok {
			t.Fatalf("%s: node %d only on flat path", name, u)
		}
		if !approxEqual(fv, sv) {
			t.Fatalf("%s: node %d flat=%v fallback=%v", name, u, fv, sv)
		}
	}
}

// partitionReps canonicalizes a component labelling: each node maps to
// the smallest node id in its component, so two labellings describe the
// same partition iff the representative maps are equal.
func partitionReps(comp map[uint64]int) map[uint64]uint64 {
	min := map[int]uint64{}
	for u, c := range comp {
		if m, ok := min[c]; !ok || u < m {
			min[c] = u
		}
	}
	reps := make(map[uint64]uint64, len(comp))
	for u, c := range comp {
		reps[u] = min[c]
	}
	return reps
}

// checkAllKernels runs the full suite both ways on v and fails on any
// divergence. roots drive the single-source kernels and deliberately
// include ids absent from the graph.
func checkAllKernels(t *testing.T, v graphstore.Store, roots []uint64) {
	t.Helper()
	if _, ok := v.(graphstore.Indexed); !ok {
		t.Fatal("differential store does not expose a CSR index")
	}
	slow := storeOnly{S: v}
	if _, ok := interface{}(slow).(graphstore.Indexed); ok {
		t.Fatal("storeOnly leaks the Indexed capability")
	}

	for _, root := range roots {
		fo, so := BFS(v, root), BFS(slow, root)
		if len(fo) != len(so) {
			t.Fatalf("BFS(%d): flat visited %d, fallback %d", root, len(fo), len(so))
		}
		for i := range fo {
			if fo[i] != so[i] {
				t.Fatalf("BFS(%d): order diverges at %d: flat %d, fallback %d", root, i, fo[i], so[i])
			}
		}
		fd, sd := Dijkstra(v, root), Dijkstra(slow, root)
		if len(fd) != len(sd) {
			t.Fatalf("Dijkstra(%d): flat reached %d, fallback %d", root, len(fd), len(sd))
		}
		for u, d := range fd {
			if sd[u] != d {
				t.Fatalf("Dijkstra(%d): dist[%d] flat=%d fallback=%d", root, u, d, sd[u])
			}
		}
		if ft, st := TriangleCount(v, root), TriangleCount(slow, root); ft != st {
			t.Fatalf("TriangleCount(%d): flat=%d fallback=%d", root, ft, st)
		}
	}

	fc, fn := ConnectedComponents(v)
	sc, sn := ConnectedComponents(slow)
	if fn != sn {
		t.Fatalf("ConnectedComponents: flat %d comps, fallback %d", fn, sn)
	}
	fr, sr := partitionReps(fc), partitionReps(sc)
	if len(fr) != len(sr) {
		t.Fatalf("ConnectedComponents: flat labelled %d nodes, fallback %d", len(fr), len(sr))
	}
	for u, rep := range fr {
		if sr[u] != rep {
			t.Fatalf("ConnectedComponents: partitions differ at node %d", u)
		}
	}

	sameFloatMap(t, "PageRank", PageRank(v, 15), PageRank(slow, 15))
	sameFloatMap(t, "Betweenness", Betweenness(v), Betweenness(slow))
	sameFloatMap(t, "LocalClustering", LocalClustering(v), LocalClustering(slow))

	ftop, stop := TopDegreeNodes(v, 8), TopDegreeNodes(slow, 8)
	if len(ftop) != len(stop) {
		t.Fatalf("TopDegreeNodes: flat %v, fallback %v", ftop, stop)
	}
	for i := range ftop {
		if ftop[i] != stop[i] {
			t.Fatalf("TopDegreeNodes: flat %v, fallback %v", ftop, stop)
		}
	}
}

// TestDifferentialFlatVsFallback drives a random operation stream —
// inserts, deletes, self-loops over a small id space so collisions and
// re-insertions are common — through the sharded engine, snapshots at
// random points, keeps mutating (so views are served partly from
// copy-on-write overlays), and differentially checks every kernel on
// every snapshot.
func TestDifferentialFlatVsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 4; round++ {
		g := sharded.New(sharded.Config{Shards: 1 << uint(round%3+1)})
		id := func() uint64 { return uint64(rng.Intn(120)) }
		for i := 0; i < 1500; i++ {
			switch rng.Intn(10) {
			case 0:
				g.DeleteEdge(id(), id())
			case 1:
				u := id()
				g.InsertEdge(u, u) // self-loop
			default:
				g.InsertEdge(id(), id())
			}
		}
		// A disconnected cluster far from the main id range.
		for u := uint64(5000); u < 5010; u++ {
			g.InsertEdge(u, u+1)
			g.InsertEdge(u+1, u)
		}
		v := g.Snapshot()

		// Post-snapshot churn: force overlay-served nodes. Deleting all
		// of a node's edges means the view finds it only in the CoW
		// overlay; inserting brand-new nodes must stay invisible.
		victim := uint64(7)
		for _, s := range graphstore.Successors(v, victim) {
			g.DeleteEdge(victim, s)
		}
		for i := 0; i < 300; i++ {
			g.InsertEdge(uint64(9000+rng.Intn(40)), uint64(9000+rng.Intn(40)))
			g.DeleteEdge(id(), id())
		}

		roots := append(TopDegreeNodes(storeOnly{S: v}, 3), victim, 5000, 123456 /* absent */)
		checkAllKernels(t, v, roots)
		v.Release()
	}
}

// TestDifferentialEdgeCases pins the degenerate shapes: the empty
// graph, a lone self-loop and a graph that is only disconnected pairs.
func TestDifferentialEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		g := sharded.New(sharded.Config{Shards: 4})
		v := g.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, []uint64{0, 1})
	})
	t.Run("self-loop", func(t *testing.T) {
		g := sharded.New(sharded.Config{Shards: 4})
		g.InsertEdge(9, 9)
		v := g.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, []uint64{9, 10})
	})
	t.Run("disconnected-pairs", func(t *testing.T) {
		g := sharded.New(sharded.Config{Shards: 4})
		for u := uint64(0); u < 40; u += 2 {
			g.InsertEdge(u, u+1)
		}
		v := g.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, []uint64{0, 17, 38, 100})
	})
}

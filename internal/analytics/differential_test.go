package analytics

import (
	"math"
	"math/rand"
	"testing"

	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/stores"
)

// The differential harness, two oracles for the seven tasks on a frozen
// view. BFS, PageRank and ConnectedComponents have a CSR kernel: each
// runs twice on the view — once through it (the view satisfies
// graphstore.Indexed) and once through the map-based fallback (the view
// wrapped in storeOnly, which hides the capability) — and must agree.
// Dijkstra, TriangleCount, Betweenness, LocalClustering and
// TopDegreeNodes have the Store-interface kernel only, so both of those
// runs would be the same code: they run on the view and on a plain
// CuckooGraph holding the edge set the view must show, which pins the
// view's ForEachNode/ForEachSuccessor/HasEdge under copy-on-write.

// mirrored is a sharded graph plus a model of its edge set. A test
// mutates through it up to the snapshot and on the bare graph after, so
// oracle() holds what the view froze, not what the graph became.
type mirrored struct {
	*sharded.Graph
	edges map[[2]uint64]bool
}

func newMirrored(shards int) *mirrored {
	return &mirrored{Graph: sharded.New(sharded.Config{Shards: shards}), edges: map[[2]uint64]bool{}}
}

func (m *mirrored) InsertEdge(u, v uint64) bool {
	m.edges[[2]uint64{u, v}] = true
	return m.Graph.InsertEdge(u, v)
}

func (m *mirrored) DeleteEdge(u, v uint64) bool {
	delete(m.edges, [2]uint64{u, v})
	return m.Graph.DeleteEdge(u, v)
}

// oracle loads the model into a plain single-writer CuckooGraph.
func (m *mirrored) oracle() graphstore.Store {
	s := stores.NewCuckooGraph()
	for e := range m.edges {
		s.InsertEdge(e[0], e[1])
	}
	return s
}

// storeOnly wraps a store, hiding every capability interface except
// Store and Degreer. Wrapping an Indexed store forces the
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

func (w storeOnly) ForEachNode(fn func(u uint64) bool) { w.S.ForEachNode(fn) }

const floatTol = 1e-9

func approxEqual(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= floatTol || d <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}

func sameFloatMap(t *testing.T, name string, got, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, oracle %d", name, len(got), len(want))
	}
	for u, gv := range got {
		wv, ok := want[u]
		if !ok {
			t.Fatalf("%s: node %d absent from the oracle", name, u)
		}
		if !approxEqual(gv, wv) {
			t.Fatalf("%s: node %d = %v, oracle %v", name, u, gv, wv)
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

// checkAllKernels runs all seven tasks on v and fails on any divergence
// from their oracle: the fallback path on v for the three with a CSR
// kernel, the same kernel on plain (v's edge set in an unsharded
// CuckooGraph) for the other five. roots drive the single-source
// kernels and deliberately include ids absent from the graph.
func checkAllKernels(t *testing.T, v, plain graphstore.Store, roots []uint64) {
	t.Helper()
	if _, ok := v.(graphstore.Indexed); !ok {
		t.Fatal("differential store does not expose a CSR index")
	}
	slow := storeOnly{S: v}
	if _, ok := interface{}(slow).(graphstore.Indexed); ok {
		t.Fatal("storeOnly leaks the Indexed capability")
	}
	if v.NumEdges() != plain.NumEdges() {
		t.Fatalf("view holds %d edges, oracle %d", v.NumEdges(), plain.NumEdges())
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
		vd, pd := Dijkstra(v, root), Dijkstra(plain, root)
		if len(vd) != len(pd) {
			t.Fatalf("Dijkstra(%d): view reached %d, oracle %d", root, len(vd), len(pd))
		}
		for u, d := range vd {
			if pd[u] != d {
				t.Fatalf("Dijkstra(%d): dist[%d] view=%d oracle=%d", root, u, d, pd[u])
			}
		}
		if vt, pt := TriangleCount(v, root), TriangleCount(plain, root); vt != pt {
			t.Fatalf("TriangleCount(%d): view=%d oracle=%d", root, vt, pt)
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
	sameFloatMap(t, "Betweenness", Betweenness(v), Betweenness(plain))
	sameFloatMap(t, "LocalClustering", LocalClustering(v), LocalClustering(plain))

	vtop, ptop := TopDegreeNodes(v, 8), TopDegreeNodes(plain, 8)
	if len(vtop) != len(ptop) {
		t.Fatalf("TopDegreeNodes: view %v, oracle %v", vtop, ptop)
	}
	for i := range vtop {
		if vtop[i] != ptop[i] {
			t.Fatalf("TopDegreeNodes: view %v, oracle %v", vtop, ptop)
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
		m := newMirrored(1 << uint(round%3+1))
		id := func() uint64 { return uint64(rng.Intn(120)) }
		for i := 0; i < 1500; i++ {
			switch rng.Intn(10) {
			case 0:
				m.DeleteEdge(id(), id())
			case 1:
				u := id()
				m.InsertEdge(u, u) // self-loop
			default:
				m.InsertEdge(id(), id())
			}
		}
		// A disconnected cluster far from the main id range, and nodes
		// that are only ever a destination.
		for u := uint64(5000); u < 5010; u++ {
			m.InsertEdge(u, u+1)
			m.InsertEdge(u+1, u)
			m.InsertEdge(id(), 7000+u)
		}
		v := m.Snapshot()

		// Post-snapshot churn, on the bare graph so the model keeps the
		// frozen edge set: force overlay-served nodes. Deleting all of a
		// node's edges means the view finds it only in the CoW overlay;
		// inserting brand-new nodes must stay invisible.
		g := m.Graph
		victim := uint64(7)
		for _, s := range graphstore.Successors(v, victim) {
			g.DeleteEdge(victim, s)
		}
		for i := 0; i < 300; i++ {
			g.InsertEdge(uint64(9000+rng.Intn(40)), uint64(9000+rng.Intn(40)))
			g.InsertEdge(id(), id())
			g.DeleteEdge(id(), id())
		}

		plain := m.oracle()
		roots := append(TopDegreeNodes(plain, 3), victim, 5000, 7005, 123456 /* absent */)
		checkAllKernels(t, v, plain, roots)
		v.Release()
	}
}

// TestDifferentialEdgeCases pins the degenerate shapes: the empty
// graph, a lone self-loop and a graph that is only disconnected pairs.
func TestDifferentialEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		m := newMirrored(4)
		v := m.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, m.oracle(), []uint64{0, 1})
	})
	t.Run("self-loop", func(t *testing.T) {
		m := newMirrored(4)
		m.InsertEdge(9, 9)
		v := m.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, m.oracle(), []uint64{9, 10})
	})
	t.Run("disconnected-pairs", func(t *testing.T) {
		m := newMirrored(4)
		for u := uint64(0); u < 40; u += 2 {
			m.InsertEdge(u, u+1)
		}
		v := m.Snapshot()
		defer v.Release()
		checkAllKernels(t, v, m.oracle(), []uint64{0, 17, 38, 100})
	})
}

package analytics

import (
	"math"
	"sort"
	"testing"

	"cuckoograph/internal/sharded"
	"cuckoograph/internal/stores"
)

// The §V-E algorithms are exercised by the main suite on healthy
// graphs; these tests pin the degenerate shapes — empty store, a single
// node, fully disconnected components, self-loops — where off-by-ones
// in frontier handling, pair enumeration and the Brandes accumulation
// would hide.

func TestAnalyticsOnEmptyStore(t *testing.T) {
	s := stores.NewCuckooGraph()
	if bc := Betweenness(s); len(bc) != 0 {
		t.Fatalf("Betweenness on empty store returned %d entries", len(bc))
	}
	if lcc := LocalClustering(s); len(lcc) != 0 {
		t.Fatalf("LocalClustering on empty store returned %d entries", len(lcc))
	}
	if n := TriangleCount(s, 1); n != 0 {
		t.Fatalf("TriangleCount on empty store = %d", n)
	}
	if comp, n := ConnectedComponents(s); n != 0 || len(comp) != 0 {
		t.Fatalf("ConnectedComponents on empty store = %d comps, %d nodes", n, len(comp))
	}
	if pr := PageRank(s, 5); pr != nil {
		t.Fatalf("PageRank on empty store = %v, want nil", pr)
	}
	if order := BFS(s, 42); len(order) != 1 || order[0] != 42 {
		t.Fatalf("BFS root on empty store = %v, want [42]", order)
	}
	if d := Dijkstra(s, 42); len(d) != 1 || d[42] != 0 {
		t.Fatalf("Dijkstra on empty store = %v", d)
	}
	if top := TopDegreeNodes(s, 3); len(top) != 0 {
		t.Fatalf("TopDegreeNodes on empty store = %v", top)
	}
}

func TestAnalyticsOnSingleNodeSelfLoop(t *testing.T) {
	s := stores.NewCuckooGraph()
	s.InsertEdge(1, 1)

	// The paper's triangle probe (2-hop then closing-edge query) counts
	// the self-loop walk 1→1→1 with closing edge ⟨1,1⟩.
	if n := TriangleCount(s, 1); n != 1 {
		t.Fatalf("TriangleCount(self-loop) = %d, want 1", n)
	}
	// One neighbour (itself): fewer than 2 neighbours ⇒ coefficient 0.
	lcc := LocalClustering(s)
	if lcc[1] != 0 {
		t.Fatalf("LocalClustering(self-loop) = %v, want 0", lcc[1])
	}
	// A self-loop puts no node on any shortest path between others.
	if bc := Betweenness(s); bc[1] != 0 {
		t.Fatalf("Betweenness(self-loop) = %v, want 0", bc[1])
	}
	if comp, n := ConnectedComponents(s); n != 1 || len(comp) != 1 {
		t.Fatalf("ConnectedComponents(self-loop) = %d comps over %d nodes, want 1/1", n, len(comp))
	}
	pr := PageRank(s, 10)
	if len(pr) != 1 || math.Abs(pr[1]-1) > 1e-9 {
		t.Fatalf("PageRank(self-loop) = %v, want {1: 1}", pr)
	}
	if order := BFS(s, 1); len(order) != 1 {
		t.Fatalf("BFS(self-loop) visited %v, want just the root once", order)
	}
}

func TestAnalyticsOnFullyDisconnectedGraph(t *testing.T) {
	// Three components with no edges between them: 1→2, 3→4, and the
	// isolated self-loop 9→9.
	s := stores.NewCuckooGraph()
	s.InsertEdge(1, 2)
	s.InsertEdge(3, 4)
	s.InsertEdge(9, 9)

	if order := BFS(s, 1); len(order) != 2 {
		t.Fatalf("BFS stayed in its component? visited %v", order)
	}
	comp, n := ConnectedComponents(s)
	// Every node is its own SCC: 1,2,3,4,9 with no cycles beyond the
	// self-loop, which still forms a singleton component.
	if n != 5 {
		t.Fatalf("ConnectedComponents = %d comps, want 5 singletons", n)
	}
	if comp[1] == comp[3] || comp[1] == comp[9] || comp[3] == comp[9] {
		t.Fatalf("disconnected sources share a component id: %v", comp)
	}
	// No node lies between any other pair, so betweenness is all zero.
	for u, b := range Betweenness(s) {
		if b != 0 {
			t.Fatalf("Betweenness[%d] = %v on a graph with no 2-hop paths", u, b)
		}
	}
	// Clustering: every node has < 2 neighbours.
	for u, c := range LocalClustering(s) {
		if c != 0 {
			t.Fatalf("LocalClustering[%d] = %v, want 0", u, c)
		}
	}
	// PageRank mass is conserved across disconnected components when
	// every node is a source (the store enumerates source nodes only, so
	// pure sinks fall outside the rank vector by design — use cycles).
	cyc := stores.NewCuckooGraph()
	for _, e := range [][2]uint64{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {9, 9}} {
		cyc.InsertEdge(e[0], e[1])
	}
	mass := 0.0
	for _, r := range PageRank(cyc, 20) {
		mass += r
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Fatalf("PageRank mass over disconnected cycles = %v, want ≈1", mass)
	}
}

func TestSelfLoopsThroughTriangleAndClustering(t *testing.T) {
	// 1⟲, 1↔2: the self-loop participates in 2-hop walks and in the
	// neighbour-pair enumeration.
	s := stores.NewCuckooGraph()
	s.InsertEdge(1, 1)
	s.InsertEdge(1, 2)
	s.InsertEdge(2, 1)

	// Walks from 1: 1→1→1 (close 1,1 ✓), 1→1→2 (close 2,1 ✓),
	// 1→2→1 (close 1,1 ✓) — three closed 2-hop walks.
	if n := TriangleCount(s, 1); n != 3 {
		t.Fatalf("TriangleCount = %d, want 3", n)
	}
	lcc := LocalClustering(s)
	// Node 1's neighbours are {1,2}; ordered pairs (1,2) and (2,1) are
	// both edges ⇒ 2 links / (2·1) = 1.
	if math.Abs(lcc[1]-1) > 1e-9 {
		t.Fatalf("LocalClustering[1] = %v, want 1", lcc[1])
	}
	if lcc[2] != 0 {
		t.Fatalf("LocalClustering[2] = %v, want 0 (single neighbour)", lcc[2])
	}
	bc := Betweenness(s)
	// With only two real nodes there is no third node to sit between.
	if bc[1] != 0 || bc[2] != 0 {
		t.Fatalf("Betweenness = %v, want all zero", bc)
	}
	// The 1↔2 cycle is one SCC; self-loop does not split it.
	if _, n := ConnectedComponents(s); n != 1 {
		t.Fatalf("ConnectedComponents = %d comps, want 1", n)
	}
}

// TestAnalyticsOnFrozenView runs the suite against a sharded snapshot
// while the live graph is mutated out from under it: the frozen view is
// a graphstore.Store, and results must reflect the epoch state.
func TestAnalyticsOnFrozenView(t *testing.T) {
	g := sharded.New(sharded.Config{Shards: 4})
	// Path 1→2→3→4 plus a triangle 10,11,12.
	for _, e := range [][2]uint64{{1, 2}, {2, 3}, {3, 4}, {10, 11}, {11, 12}, {12, 10}} {
		g.InsertEdge(e[0], e[1])
	}
	v := g.Snapshot()
	defer v.Release()

	// Shred the live graph.
	for _, e := range [][2]uint64{{1, 2}, {2, 3}, {3, 4}, {10, 11}} {
		g.DeleteEdge(e[0], e[1])
	}
	for u := uint64(50); u < 80; u++ {
		g.InsertEdge(u, u+1)
	}

	if order := BFS(v, 1); len(order) != 4 {
		t.Fatalf("BFS on frozen view reached %v, want the 4-node path", order)
	}
	comp, n := ConnectedComponents(v)
	if n != 5 { // 1,2,3,4 singletons + the 10-11-12 cycle
		t.Fatalf("ConnectedComponents on view = %d comps, want 5", n)
	}
	if comp[10] != comp[11] || comp[11] != comp[12] {
		t.Fatalf("triangle split across components on frozen view: %v", comp)
	}
	bc := Betweenness(v)
	// On the path 1→2→3→4, node 2 lies on 1→3 and 1→4, node 3 on
	// 1→4 and 2→4: betweenness 2 each.
	if bc[2] != 2 || bc[3] != 2 {
		t.Fatalf("Betweenness on view: bc[2]=%v bc[3]=%v, want 2/2", bc[2], bc[3])
	}
	nodes := Nodes(v)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	want := []uint64{1, 2, 3, 10, 11, 12}
	if len(nodes) != len(want) {
		t.Fatalf("frozen view nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("frozen view nodes = %v, want %v", nodes, want)
		}
	}
}

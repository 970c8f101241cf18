package core

import "testing"

// The engine read path — Contains/HasEdge, Degree, ForEachSuccessor —
// must be allocation-free end to end, on inline cells and on S-CHT
// chains alike, and so must a mutation that transforms nothing. These
// regression tests pin it with AllocsPerRun.

// buildReadGraph returns a graph with one inline node (degree 1), one
// full-inline node (degree 2R) and one chained node (degree 64).
func buildReadGraph(t *testing.T) (g *Graph, inline1, inline2R, chained uint64) {
	t.Helper()
	g = NewGraph(Config{})
	inline1, inline2R, chained = 101, 202, 303
	g.InsertEdge(inline1, 1)
	for v := uint64(1); v <= uint64(2*g.e.cfg.R); v++ {
		g.InsertEdge(inline2R, v)
	}
	for v := uint64(1); v <= 64; v++ {
		g.InsertEdge(chained, v)
	}
	if st := g.Stats(); st.Chains != 1 {
		t.Fatalf("expected exactly one chained node, got %d", st.Chains)
	}
	return g, inline1, inline2R, chained
}

func TestHasEdgeZeroAlloc(t *testing.T) {
	g, inline1, inline2R, chained := buildReadGraph(t)
	if n := testing.AllocsPerRun(200, func() {
		if !g.HasEdge(inline1, 1) || !g.HasEdge(inline2R, 2) || !g.HasEdge(chained, 33) {
			t.Fatal("present edge missing")
		}
		if g.HasEdge(chained, 1<<40) || g.HasEdge(9999, 1) {
			t.Fatal("phantom edge")
		}
	}); n != 0 {
		t.Fatalf("HasEdge allocates %.1f/op, want 0", n)
	}
}

// TestMutationZeroAlloc covers the point mutations that change no
// table's shape: a duplicate insert, and a delete-then-reinsert of one
// edge of an inline node (which keeps its cell) and of a chained node
// (whose chain neither contracts nor grows in between).
func TestMutationZeroAlloc(t *testing.T) {
	g, _, inline2R, chained := buildReadGraph(t)
	before := g.Stats()
	if n := testing.AllocsPerRun(200, func() {
		if g.InsertEdge(inline2R, 2) || g.InsertEdge(chained, 33) {
			t.Fatal("duplicate insert reported a new edge")
		}
	}); n != 0 {
		t.Fatalf("duplicate InsertEdge allocates %.1f/op, want 0", n)
	}
	for _, u := range [...]uint64{inline2R, chained} {
		if n := testing.AllocsPerRun(200, func() {
			if !g.DeleteEdge(u, 2) || !g.InsertEdge(u, 2) {
				t.Fatal("toggle of a present edge failed")
			}
		}); n != 0 {
			t.Fatalf("DeleteEdge+InsertEdge on node %d allocates %.1f/toggle, want 0", u, n)
		}
	}
	if after := g.Stats(); after.Transformations != before.Transformations || after.Chains != 1 || after.SDLLen != 0 {
		t.Fatalf("toggles restructured the graph: %+v → %+v", before, after)
	}
}

// TestCellMutationZeroAlloc pins what holding Part 2 in the L-CHT cell
// buys: the first edge of a new node, an append to and a delete from its
// small slots, the delete of its last edge, and the collapse of a chain
// back into the small slots all work on the row in place and allocate
// nothing. The L-CHT is made large enough to take every node of the test
// without growing, and a table at its base length never contracts.
func TestCellMutationZeroAlloc(t *testing.T) {
	const runs = 200 // AllocsPerRun calls f runs+1 times
	g := NewGraph(Config{LCHTBase: 512})
	full := uint64(g.e.inlineCap)
	tables := g.Stats().LCHTTables
	var u uint64
	step := func(name string, f func(u uint64) bool) {
		t.Helper()
		u = 0
		if n := testing.AllocsPerRun(runs, func() {
			u++
			if !f(u) {
				t.Fatalf("%s: op on node %d changed nothing", name, u)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, n)
		}
	}
	step("first edge of a new node", func(u uint64) bool { return g.InsertEdge(u, 1) })
	step("inline append", func(u uint64) bool { return g.InsertEdge(u, 2) })
	step("inline delete", func(u uint64) bool { return g.DeleteEdge(u, 1) })
	step("delete of a node's last edge", func(u uint64) bool { return g.DeleteEdge(u, 2) })
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("%d nodes and %d edges left", g.NumNodes(), g.NumEdges())
	}

	// Every node one edge past its small slots, then one delete each.
	for u := uint64(1); u <= runs+1; u++ {
		for v := uint64(0); v <= full; v++ {
			g.InsertEdge(u, v)
		}
	}
	if st := g.Stats(); st.Chains != runs+1 {
		t.Fatalf("%d chains, want %d", st.Chains, runs+1)
	}
	step("collapse", func(u uint64) bool { return g.DeleteEdge(u, 0) })
	if st := g.Stats(); st.Chains != 0 || st.LCHTTables != tables || st.LDLLen != 0 || st.SDLLen != 0 {
		t.Fatalf("after the collapses: %+v (L-CHT had %d tables)", st, tables)
	}
	for u := uint64(1); u <= runs+1; u++ {
		if g.Degree(u) != int(full) || g.HasEdge(u, 0) || !g.HasEdge(u, full) {
			t.Fatalf("node %d after its collapse: degree %d", u, g.Degree(u))
		}
	}
}

func TestDegreeZeroAlloc(t *testing.T) {
	g, inline1, inline2R, chained := buildReadGraph(t)
	if n := testing.AllocsPerRun(200, func() {
		if g.Degree(inline1) != 1 || g.Degree(inline2R) != 2*g.e.cfg.R || g.Degree(chained) != 64 {
			t.Fatal("wrong degree")
		}
		if g.Degree(9999) != 0 {
			t.Fatal("phantom degree")
		}
	}); n != 0 {
		t.Fatalf("Degree allocates %.1f/op, want 0", n)
	}
}

func TestForEachSuccessorZeroAlloc(t *testing.T) {
	g, inline1, inline2R, chained := buildReadGraph(t)
	var count int
	if n := testing.AllocsPerRun(100, func() {
		for _, u := range [...]uint64{inline1, inline2R, chained} {
			count = 0
			g.ForEachSuccessor(u, func(uint64) bool {
				count++
				return true
			})
		}
	}); n != 0 {
		t.Fatalf("ForEachSuccessor allocates %.1f/run, want 0", n)
	}
	if count != 64 {
		t.Fatalf("chained scan visited %d, want 64", count)
	}
}

func TestAppendSuccessorsZeroAlloc(t *testing.T) {
	g, inline1, inline2R, chained := buildReadGraph(t)
	dst := make([]uint64, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for _, u := range [...]uint64{inline1, inline2R, chained} {
			dst = g.AppendSuccessors(u, dst[:0])
		}
	}); n != 0 {
		t.Fatalf("AppendSuccessors into a reused dst allocates %.1f/run, want 0", n)
	}
	if len(dst) != 64 {
		t.Fatalf("chained scan appended %d, want 64", len(dst))
	}
}

func TestWeightedForEachSuccessorZeroAlloc(t *testing.T) {
	w := NewWeighted(Config{})
	u := uint64(7)
	for v := uint64(1); v <= 64; v++ {
		w.InsertEdge(u, v)
		w.InsertEdge(u, v) // weight 2
	}
	var sum uint64
	if n := testing.AllocsPerRun(100, func() {
		sum = 0
		w.ForEachSuccessor(u, func(_, weight uint64) bool {
			sum += weight
			return true
		})
	}); n != 0 {
		t.Fatalf("Weighted.ForEachSuccessor allocates %.1f/run, want 0", n)
	}
	if sum != 128 {
		t.Fatalf("weight sum = %d, want 128", sum)
	}
	if w.Degree(u) != 64 {
		t.Fatalf("Degree = %d, want 64", w.Degree(u))
	}
}

// TestMemoryUsageCountsTagBytes pins the §IV space accounting of the
// fingerprint-tag layout: every cell costs 8 B of Part 1 plus its
// payload plus exactly 1 B of tag (the tag replaced the retired
// occupancy byte, so the space model is unchanged), and the total is
// reconstructable from Stats.
func TestMemoryUsageCountsTagBytes(t *testing.T) {
	g := NewGraph(Config{})
	st := g.Stats()
	if st.Chains != 0 || st.LDLLen != 0 || st.SDLLen != 0 {
		t.Fatal("fresh graph not empty")
	}
	part2Bytes := 2 * g.e.cfg.R * 8
	perCell := uint64(8 + part2Bytes + 1) // key + Part 2 + tag byte
	// Chain.MemoryBytes adds a 64 B header and an 8 B slot per table.
	want := uint64(st.LCHTCells)*perCell + uint64(st.LCHTTables)*(64+8)
	if got := g.MemoryUsage(); got != want {
		t.Fatalf("MemoryUsage = %d, want %d (cells %d × %d + headers)", got, want, st.LCHTCells, perCell)
	}
}

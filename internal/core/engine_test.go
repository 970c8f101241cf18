package core

import (
	"slices"
	"testing"

	"cuckoograph/internal/hashutil"
)

// TestSDLDrainOnExpansion reproduces Example 2 of §III-A2/3: items
// parked in the S-DL whose u matches an expanding chain are moved into
// the newly enabled S-CHT.
func TestSDLDrainOnExpansion(t *testing.T) {
	g := NewGraph(Config{SCHTBase: 2, SDLCap: 64})
	u := uint64(9)
	// Build a chain, then park entries in the S-DL by hand through the
	// engine (simulating kick-war losers).
	for v := uint64(1); v <= 10; v++ {
		g.InsertEdge(u, v)
	}
	if g.Stats().Chains != 1 {
		t.Fatal("no chain at degree 10")
	}
	g.e.park(u, slot[struct{}]{v: 1000})
	g.e.park(u, slot[struct{}]{v: 1001})
	g.e.park(77, slot[struct{}]{v: 1002}) // other u stays
	g.e.edges += 3
	// Edges in the S-DL are already visible to queries.
	if !g.HasEdge(u, 1000) || !g.HasEdge(77, 1002) {
		t.Fatal("S-DL entries not queryable")
	}
	// Force chain expansions by raising the degree; the drain should
	// move the matching entries into the chain.
	for v := uint64(11); v <= 200; v++ {
		g.InsertEdge(u, v)
	}
	for _, entry := range g.e.sdl {
		if entry.u == u {
			t.Fatalf("S-DL still holds ⟨%d,%d⟩ after expansion", entry.u, entry.s.v)
		}
	}
	if !g.HasEdge(u, 1000) || !g.HasEdge(u, 1001) {
		t.Fatal("drained edges lost")
	}
	if !g.HasEdge(77, 1002) {
		t.Fatal("non-matching S-DL entry disturbed")
	}
}

// TestLDLKeepsChainWithoutCopy checks the L-DL design point of §III-A2:
// a cell evicted into the L-DL keeps its chain number and so its S-CHT
// chain, which is neither copied nor lost, and stays fully operational.
func TestLDLKeepsChainWithoutCopy(t *testing.T) {
	g := NewGraph(Config{SCHTBase: 2})
	u := uint64(42)
	for v := uint64(1); v <= 50; v++ {
		g.InsertEdge(u, v)
	}
	row := g.e.findPart2(hashutil.Key64(u), u)
	if row == nil || g.e.chainOf(row) == nil {
		t.Fatal("expected a chain")
	}
	chain := g.e.chainOf(row)
	// Evict the cell into the L-DL by hand.
	g.e.ldl = append(g.e.ldl, ldlEntry[struct{}]{u: u, row: slices.Clone(row)})
	g.e.lcht.Delete(u)

	// The same chain object must be reachable (pointer equality = no
	// copying) and all edges still answer.
	row2 := g.e.findPart2(hashutil.Key64(u), u)
	if row2 == nil || g.e.chainOf(row2) != chain {
		t.Fatal("chain pointer changed across L-DL eviction")
	}
	for v := uint64(1); v <= 50; v++ {
		if !g.HasEdge(u, v) {
			t.Fatalf("edge %d lost while cell in L-DL", v)
		}
	}
	// Mutations through the L-DL-resident cell must work too.
	g.InsertEdge(u, 999)
	if !g.HasEdge(u, 999) {
		t.Fatal("insert into L-DL-resident cell failed")
	}
	if !g.DeleteEdge(u, 1) || g.HasEdge(u, 1) {
		t.Fatal("delete through L-DL-resident cell failed")
	}
}

// TestForcedGrowthWhenDenylistsFull verifies the overflow fallback: a
// full denylist triggers a transformation instead of dropping items.
func TestForcedGrowthWhenDenylistsFull(t *testing.T) {
	g := NewGraph(Config{MaxKicks: 1, D: 1, LCHTBase: 2, SCHTBase: 2, LDLCap: 2, SDLCap: 2})
	rng := hashutil.NewRNG(17)
	type pair struct{ u, v uint64 }
	var pairs []pair
	for i := 0; i < 3000; i++ {
		p := pair{rng.Uint64n(500), rng.Uint64n(500)}
		pairs = append(pairs, p)
		g.InsertEdge(p.u, p.v)
	}
	st := g.Stats()
	if st.LDLLen > 2 || st.SDLLen > 2 {
		t.Fatalf("denylists exceeded caps: L=%d S=%d", st.LDLLen, st.SDLLen)
	}
	for _, p := range pairs {
		if !g.HasEdge(p.u, p.v) {
			t.Fatalf("edge %v lost under full-denylist pressure", p)
		}
	}
}

// TestStatsConsistency cross-checks the Stats counters against direct
// structure walks.
func TestStatsConsistency(t *testing.T) {
	g := NewGraph(Config{})
	rng := hashutil.NewRNG(23)
	for i := 0; i < 10000; i++ {
		g.InsertEdge(rng.Uint64n(200), rng.Uint64n(2000))
	}
	st := g.Stats()
	var nodes, edges int
	g.ForEachNode(func(u uint64) bool {
		nodes++
		g.ForEachSuccessor(u, func(uint64) bool { edges++; return true })
		return true
	})
	if uint64(nodes) != st.Nodes {
		t.Fatalf("walked %d nodes, stats say %d", nodes, st.Nodes)
	}
	if uint64(edges) != st.Edges {
		t.Fatalf("walked %d edges, stats say %d", edges, st.Edges)
	}
	if st.LCHTLoadRate <= 0 || st.LCHTLoadRate > 1 {
		t.Fatalf("load rate %f out of range", st.LCHTLoadRate)
	}
	if st.ChainEntries > int(st.Edges) {
		t.Fatalf("chain entries %d exceed edges %d", st.ChainEntries, st.Edges)
	}
}

// TestDeleteNonExistent covers all miss paths of deleteEdge.
func TestDeleteNonExistent(t *testing.T) {
	g := NewGraph(Config{})
	if g.DeleteEdge(1, 2) {
		t.Fatal("delete on empty graph succeeded")
	}
	g.InsertEdge(1, 2)
	if g.DeleteEdge(1, 3) {
		t.Fatal("delete of absent v succeeded")
	}
	if g.DeleteEdge(2, 2) {
		t.Fatal("delete of absent u succeeded")
	}
	// Chain-mode miss.
	for v := uint64(10); v < 40; v++ {
		g.InsertEdge(1, v)
	}
	if g.DeleteEdge(1, 5000) {
		t.Fatal("chain-mode delete of absent v succeeded")
	}
}

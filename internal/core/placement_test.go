package core_test

import (
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/dataset"
)

// placement is the part of Stats that records where cells went: kicks
// and placements per structure, and the shape the transformations and
// denylists left.
type placement struct {
	LCHTKicks, LCHTPlacements, SCHTKicks, SCHTPlacements uint64
	Chains, SCHTTables, ChainCells, LCHTTables           int
	SDLLen, LDLLen                                       int
}

func placementOf(st core.Stats) placement {
	return placement{
		LCHTKicks: st.LCHTKicks, LCHTPlacements: st.LCHTPlacements,
		SCHTKicks: st.SCHTKicks, SCHTPlacements: st.SCHTPlacements,
		Chains: st.Chains, SCHTTables: st.SCHTTables, ChainCells: st.ChainCells, LCHTTables: st.LCHTTables,
		SDLLen: st.SDLLen, LDLLen: st.LDLLen,
	}
}

// TestPlacementIsPinned loads a StackOverflow-shaped stream into a basic
// graph, then deletes two edges of every three, and compares the
// placement counters after each phase with the values the engine
// produced when they were recorded. Every hash seed, eviction draw,
// grow, merge, contraction and collapse feeds them, so a change to the
// chain's layout that moves a single cell fails here. A change that
// means to move cells records new values and says why.
//
// The values were last recorded when a chain of base 2 began to open
// at length 1, one bucket per array (16 cells, not 24), and to rebuild
// that table in place at length 2 when it reaches G; the second table
// of a length-2 first is now length 1 too, as Table II's n/2 says.
// After the load ChainCells fell from 55 776 to 44 904, S-CHT kicks
// from 6 377 to 4 885, and placements rose from 42 810 to 50 212 (a
// rebuild re-homes its ≈ 15 entries). The S-DL went from 1 to 12, what
// insertions into lone length-2 tables at 20–21 of their 24 cells left
// homeless; checkNoKickWar still holds. Before that, a merge stopped
// kicking (S-CHT kicks 254 732 → 6 377, S-DL 207 → 1).
func TestPlacementIsPinned(t *testing.T) {
	g, edges := loadPinned()
	checkNoKickWar(t, g.Stats())
	loaded := placement{
		LCHTKicks: 82, LCHTPlacements: 5127, SCHTKicks: 4885, SCHTPlacements: 50212,
		Chains: 1643, SCHTTables: 1977, ChainCells: 44904, LCHTTables: 3,
		SDLLen: 12, LDLLen: 0,
	}
	if got := placementOf(g.Stats()); got != loaded {
		t.Fatalf("after loading %d edges:\n got %+v\nwant %+v", len(edges), got, loaded)
	}
	for i, e := range edges {
		if i%3 != 0 {
			g.DeleteEdge(e.U, e.V)
		}
	}
	checkNoKickWar(t, g.Stats())
	thinned := placement{
		LCHTKicks: 82, LCHTPlacements: 5127, SCHTKicks: 4956, SCHTPlacements: 60826,
		Chains: 212, SCHTTables: 212, ChainCells: 5736, LCHTTables: 3,
		SDLLen: 1, LDLLen: 0,
	}
	if got := placementOf(g.Stats()); got != thinned {
		t.Fatalf("after the deletions:\n got %+v\nwant %+v", got, thinned)
	}
}

// loadPinned loads the pinned stream, a StackOverflow load at seed 7,
// into a basic graph with the default configuration.
func loadPinned() (*core.Graph, []dataset.Edge) {
	spec, _ := dataset.ByName("StackOverflow")
	edges := dataset.Generate(spec, 1024, 7)
	g := core.NewGraph(core.Config{})
	for _, e := range edges {
		g.InsertEdge(e.U, e.V)
	}
	return g, edges
}

// TestSCHTByTableSumsToTotals checks that the load by table position
// adds up to the chain-wide totals on the pinned graph: every chain has
// a first table, no position is empty, and tables, cells and entries
// sum to SCHTTables, ChainCells and ChainEntries.
func TestSCHTByTableSumsToTotals(t *testing.T) {
	g, _ := loadPinned()
	st := g.Stats()
	var sum core.TableLoad
	for i, p := range st.SCHTByTable {
		t.Logf("S-CHT %d: %d tables, %d cells, %d entries, load %.3f", i+1, p.Tables, p.Cells, p.Entries, float64(p.Entries)/float64(p.Cells))
		if p.Tables == 0 || (i == 0 && p.Tables != st.Chains) {
			t.Fatalf("position %d holds %d tables of %d chains", i+1, p.Tables, st.Chains)
		}
		sum.Tables, sum.Cells, sum.Entries = sum.Tables+p.Tables, sum.Cells+p.Cells, sum.Entries+p.Entries
	}
	if want := (core.TableLoad{Tables: st.SCHTTables, Cells: st.ChainCells, Entries: st.ChainEntries}); sum != want || len(st.SCHTByTable) < 2 {
		t.Fatalf("%d positions sum to %+v, totals %+v", len(st.SCHTByTable), sum, want)
	}
}

// checkNoKickWar states what the pinned numbers are meant to show: the
// S-CHTs place almost every entry in a free cell, and the S-DL stays far
// from its cap, where a full one would force further Grows.
func checkNoKickWar(t *testing.T, st core.Stats) {
	t.Helper()
	if r := float64(st.SCHTKicks) / float64(st.SCHTPlacements); r >= 0.2 {
		t.Errorf("S-CHT kicks per placement %.3f (%d / %d), want < 0.2", r, st.SCHTKicks, st.SCHTPlacements)
	}
	if limit := (core.Config{}).Defaults().SDLCap / 4; st.SDLLen >= limit {
		t.Errorf("S-DL holds %d entries, want < %d (a quarter of its cap)", st.SDLLen, limit)
	}
}

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
// The values were last recorded when a merge stopped kicking: it puts
// each entry in a free cell of the emptier of its two buckets in the
// doubled first table, and only an entry whose buckets are both full
// goes to the fresh second table, with T kicks. S-CHT kicks after the
// load fell from 254 732 to 6 377 and the S-DL from 207 to 1.
func TestPlacementIsPinned(t *testing.T) {
	spec, _ := dataset.ByName("StackOverflow")
	edges := dataset.Generate(spec, 1024, 7)
	g := core.NewGraph(core.Config{})
	for _, e := range edges {
		g.InsertEdge(e.U, e.V)
	}
	checkNoKickWar(t, g.Stats())
	loaded := placement{
		LCHTKicks: 82, LCHTPlacements: 5127, SCHTKicks: 6377, SCHTPlacements: 42810,
		Chains: 1643, SCHTTables: 1985, ChainCells: 55776, LCHTTables: 3,
		SDLLen: 1, LDLLen: 0,
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
		LCHTKicks: 82, LCHTPlacements: 5127, SCHTKicks: 7018, SCHTPlacements: 52037,
		Chains: 212, SCHTTables: 212, ChainCells: 6720, LCHTTables: 3,
		SDLLen: 0, LDLLen: 0,
	}
	if got := placementOf(g.Stats()); got != thinned {
		t.Fatalf("after the deletions:\n got %+v\nwant %+v", got, thinned)
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

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
func TestPlacementIsPinned(t *testing.T) {
	spec, _ := dataset.ByName("StackOverflow")
	edges := dataset.Generate(spec, 1024, 7)
	g := core.NewGraph(core.Config{})
	for _, e := range edges {
		g.InsertEdge(e.U, e.V)
	}
	loaded := placement{
		LCHTKicks: 224, LCHTPlacements: 5142, SCHTKicks: 254732, SCHTPlacements: 43060,
		Chains: 1643, SCHTTables: 1971, ChainCells: 55848, LCHTTables: 3,
		SDLLen: 207, LDLLen: 0,
	}
	if got := placementOf(g.Stats()); got != loaded {
		t.Fatalf("after loading %d edges:\n got %+v\nwant %+v", len(edges), got, loaded)
	}
	for i, e := range edges {
		if i%3 != 0 {
			g.DeleteEdge(e.U, e.V)
		}
	}
	thinned := placement{
		LCHTKicks: 224, LCHTPlacements: 5142, SCHTKicks: 255373, SCHTPlacements: 51695,
		Chains: 211, SCHTTables: 211, ChainCells: 6648, LCHTTables: 3,
		SDLLen: 30, LDLLen: 0,
	}
	if got := placementOf(g.Stats()); got != thinned {
		t.Fatalf("after the deletions:\n got %+v\nwant %+v", got, thinned)
	}
}

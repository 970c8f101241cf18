package core

import (
	"testing"

	"cuckoograph/internal/hashutil"
)

// A seeded differential test of the engine against a map-of-sets
// oracle, under caps small enough that every structure overflows:
// L-CHT and S-CHTs start at length 2, the L-DL holds 2 cells and the
// S-DL 4 edges. After EVERY op an invariant walker visits the whole
// structure, so a slot cleared twice, an edge left behind by a
// collapse, or S-DL bookkeeping one entry out is caught at the op that
// did it.

var tinyCaps = Config{LCHTBase: 2, SCHTBase: 2, LDLCap: 2, SDLCap: 4}

// diffGraph is what Graph and Weighted share.
type diffGraph interface {
	InsertEdge(u, v uint64) bool
	DeleteEdge(u, v uint64) bool
	HasEdge(u, v uint64) bool
	Degree(u uint64) int
	NumEdges() uint64
	NumNodes() uint64
}

// oracle maps u → v → weight (always 1 for the basic version).
type oracle map[uint64]map[uint64]uint64

func (o oracle) edges() (n uint64) {
	for _, vs := range o {
		n += uint64(len(vs))
	}
	return n
}

// walkEngine checks every structural invariant of e against want and
// reports whether the structure is in the corner the S-DL bookkeeping
// exists for: a node back in FULL inline slots after its chain
// collapsed, with edges still parked in the S-DL.
func walkEngine[W any](t *testing.T, e *engine[W], want oracle, weightOf func(*W) uint64) (corner bool) {
	t.Helper()
	type edge struct{ u, v uint64 }
	stored := map[edge]int{}
	cells := map[uint64]*part2[W]{}
	see := func(u, v uint64, w *W) {
		stored[edge{u, v}]++
		if got := weightOf(w); got != want[u][v] {
			t.Fatalf("⟨%d,%d⟩ stored with weight %d, oracle has %d", u, v, got, want[u][v])
		}
	}
	visit := func(u uint64, p *part2[W]) {
		if cells[u] != nil {
			t.Fatalf("node %d has two cells", u)
		}
		cells[u] = p
		switch {
		case (p.chain == nil) == (p.inline == nil):
			t.Fatalf("node %d: inline %v and chain %v", u, p.inline != nil, p.chain != nil)
		case p.chain != nil:
			if p.chain.Size() <= e.inlineCap {
				t.Fatalf("node %d: chain of %d entries not collapsed (inline holds %d)", u, p.chain.Size(), e.inlineCap)
			}
			n := 0
			p.chain.ForEachRef(func(v uint64, w *W) bool {
				n++
				see(u, v, w)
				return true
			})
			if n != p.chain.Size() {
				t.Fatalf("node %d: chain scan found %d entries, Size() = %d", u, n, p.chain.Size())
			}
		case len(p.inline) == 0 || len(p.inline) > e.inlineCap:
			t.Fatalf("node %d: %d inline slots", u, len(p.inline))
		default:
			for i := range p.inline {
				see(u, p.inline[i].v, &p.inline[i].w)
			}
		}
	}
	e.lcht.ForEachRef(func(u uint64, p *part2[W]) bool {
		visit(u, p)
		return true
	})
	for i := range e.ldl {
		visit(e.ldl[i].u, &e.ldl[i].p)
	}

	// The S-DL, and the per-node counts kept beside it.
	parked := map[uint64]int{}
	for i := range e.sdl {
		en := &e.sdl[i]
		parked[en.u]++
		see(en.u, en.s.v, &en.s.w)
	}
	if len(parked) != len(e.parked) {
		t.Fatalf("S-DL holds %d nodes, bookkeeping %d: %v vs %v", len(parked), len(e.parked), parked, e.parked)
	}
	for u, n := range parked {
		if e.parked[u] != n {
			t.Fatalf("S-DL holds %d entries of node %d, bookkeeping says %d", n, u, e.parked[u])
		}
		p := cells[u]
		switch {
		case p == nil:
			t.Fatalf("node %d has parked edges and no cell", u)
		case p.chain == nil && len(p.inline) < e.inlineCap:
			t.Fatalf("node %d has parked edges beside %d free inline slots", u, e.inlineCap-len(p.inline))
		case p.chain == nil:
			corner = true
		}
	}

	// Every edge exactly once, nothing else, and the counters exact.
	for ed, n := range stored {
		if n != 1 {
			t.Fatalf("⟨%d,%d⟩ stored %d times", ed.u, ed.v, n)
		}
	}
	if uint64(len(stored)) != want.edges() || e.edges != want.edges() {
		t.Fatalf("%d edges stored, counter %d, oracle %d", len(stored), e.edges, want.edges())
	}
	if len(cells) != len(want) || e.nodes != uint64(len(want)) {
		t.Fatalf("%d cells, counter %d, oracle %d nodes", len(cells), e.nodes, len(want))
	}
	for u, vs := range want {
		if got := e.degree(u); got != len(vs) {
			t.Fatalf("degree(%d) = %d, oracle %d", u, got, len(vs))
		}
	}
	return corner
}

// steer picks, while some chained node has parked edges, one of that
// node's edges that is NOT parked: deleting those walks the chain down
// to its collapse with the S-DL entries still in place, which a blind
// stream all but never does. Smallest ids first, so a seed replays.
func steer[W any](e *engine[W], want oracle) (u, v uint64, ok bool) {
	u = ^uint64(0)
	for pu := range e.parked {
		if p := e.findPart2(hashutil.Key64(pu), pu); p != nil && p.chain != nil && pu < u {
			u, ok = pu, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	v, ok = ^uint64(0), false
	for cand := range want[u] {
		if w, at, _ := e.find(e.findPart2(hashutil.Key64(u), u), u, cand); w != nil && at >= 0 && cand < v {
			v, ok = cand, true
		}
	}
	return u, v, ok
}

// runDifferential drives g (whose engine is e) and the oracle through a
// seeded stream over a few hot sources, alternating insert-heavy and
// delete-heavy stretches so chains grow through Table II, contract and
// collapse again and again; one op in three is steered. It returns how
// many ops ended in the corner state.
func runDifferential[W any](t *testing.T, seed uint64, g diffGraph, e *engine[W], weighted bool, weightOf func(*W) uint64) (corners int) {
	const sources, targets, ops = 5, 48, 12000
	rng := hashutil.NewRNG(seed)
	want := oracle{}
	for i := 0; i < ops; i++ {
		u, v := rng.Uint64n(sources), rng.Uint64n(targets)
		insertBias := 7
		if i/600%2 == 1 {
			insertBias = 2
		}
		k := rng.Intn(10)
		if su, sv, ok := steer(e, want); ok && i%3 == 0 {
			u, v, k = su, sv, insertBias // a delete
		}
		w := want[u][v]
		switch {
		case k < insertBias:
			if got := g.InsertEdge(u, v); got != (w == 0) {
				t.Fatalf("op %d: InsertEdge(%d,%d) = %v with oracle weight %d", i, u, v, got, w)
			}
			if want[u] == nil {
				want[u] = map[uint64]uint64{}
			}
			if w == 0 || weighted {
				want[u][v] = w + 1
			}
		case k < 9:
			if got := g.DeleteEdge(u, v); got != (w != 0) {
				t.Fatalf("op %d: DeleteEdge(%d,%d) = %v with oracle weight %d", i, u, v, got, w)
			}
			if w > 1 {
				want[u][v] = w - 1
			} else if w == 1 {
				delete(want[u], v)
				if len(want[u]) == 0 {
					delete(want, u)
				}
			}
		default:
			if got := g.HasEdge(u, v); got != (w != 0) {
				t.Fatalf("op %d: HasEdge(%d,%d) = %v with oracle weight %d", i, u, v, got, w)
			}
		}
		if walkEngine(t, e, want, weightOf) {
			corners++
		}
		if g.NumEdges() != want.edges() || g.NumNodes() != uint64(len(want)) || g.Degree(u) != len(want[u]) {
			t.Fatalf("op %d: NumEdges %d NumNodes %d Degree(%d) %d; oracle %d, %d, %d",
				i, g.NumEdges(), g.NumNodes(), u, g.Degree(u), want.edges(), len(want), len(want[u]))
		}
	}
	return corners
}

func TestDifferentialGraphTinyCaps(t *testing.T) {
	corners := 0
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := tinyCaps
		cfg.Seed = seed
		g := NewGraph(cfg)
		corners += runDifferential(t, seed, g, g.e, false, func(*struct{}) uint64 { return 1 })
	}
	t.Logf("%d ops ended with edges parked beside a node's full inline slots", corners)
	if corners == 0 {
		t.Fatal("the corner is not covered")
	}
}

func TestDifferentialWeightedTinyCaps(t *testing.T) {
	corners := 0
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := tinyCaps
		cfg.Seed = seed
		g := NewWeighted(cfg)
		corners += runDifferential(t, seed, g, g.e, true, func(w *uint64) uint64 { return *w })
	}
	t.Logf("%d ops ended with edges parked beside a node's full inline slots", corners)
	if corners == 0 {
		t.Fatal("the corner is not covered")
	}
}

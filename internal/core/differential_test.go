package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cuckoograph/internal/hashutil"
)

// A seeded differential test of the engine against a map-of-sets
// oracle, under caps small enough that every structure overflows:
// L-CHT and S-CHTs start at length 2, the L-DL holds 2 cells and the
// S-DL 4 edges. After EVERY op an invariant walker visits the whole
// structure, so a slot cleared twice, an edge left behind by a
// collapse, or S-DL bookkeeping one entry out is caught at the op that
// did it. The walker checks the chain registry with the cells: every
// chained cell names a live chain of its own, and a number is either
// live or on the free list.

var tinyCaps = Config{LCHTBase: 2, SCHTBase: 2, LDLCap: 2, SDLCap: 4}

// diffGraph is what Graph and Weighted share, and what multiDiff makes
// of Multi.
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

// coverage counts the ops of a differential run that ended in a state
// worth having seen.
type coverage struct {
	// corners: a node back in FULL inline slots after its chain
	// collapsed, with edges still parked in the S-DL — the corner the
	// S-DL bookkeeping exists for.
	corners int
	// ldl: a cell sitting in the L-DL; ldlChained: a chained one, its
	// chain reachable through the number in the row copy alone.
	ldl, ldlChained int
	// collapses: a chain went back to inline slots.
	collapses int
}

// walkEngine checks every structural invariant of e against want and
// adds to cov what the state it found covers.
func walkEngine[W any](t *testing.T, e *engine[W], want oracle, weightOf func(*W) uint64, cov *coverage) {
	t.Helper()
	type edge struct{ u, v uint64 }
	stored := map[edge]int{}
	cells := map[uint64][]slot[W]{}
	live := map[uint64]bool{} // chain numbers named by a cell
	isZero := func(s slot[W]) bool { return reflect.ValueOf(s).IsZero() }
	see := func(u, v uint64, w *W) {
		stored[edge{u, v}]++
		if got := weightOf(w); got != want[u][v] {
			t.Fatalf("⟨%d,%d⟩ stored with weight %d, oracle has %d", u, v, got, want[u][v])
		}
	}
	visit := func(u uint64, row []slot[W]) {
		if cells[u] != nil {
			t.Fatalf("node %d has two cells", u)
		}
		cells[u] = row
		if len(row) != 1+e.inlineCap {
			t.Fatalf("node %d: row of %d elements, want %d", u, len(row), 1+e.inlineCap)
		}
		head, used := row[0].v, 0
		if head&chainFlag != 0 {
			no := head &^ chainFlag
			if no >= uint64(len(e.chains)) || e.chains[no] == nil {
				t.Fatalf("node %d names chain %d, which is not live (registry of %d)", u, no, len(e.chains))
			}
			if live[no] {
				t.Fatalf("node %d names chain %d, which another cell names too", u, no)
			}
			live[no] = true
			c := e.chains[no]
			// With narrow buckets a transformation can park some of the
			// node's edges at once, and deleting a parked edge checks no
			// collapse, so a chain may rightly hold no more than the inline
			// slots would; at d = 8 the runs here never get there, and this
			// catches a collapse that was skipped.
			if c.Size() <= e.inlineCap && e.cfg.D >= 8 {
				t.Fatalf("node %d: chain of %d entries not collapsed (inline holds %d)", u, c.Size(), e.inlineCap)
			}
			n := 0
			c.ForEachRef(func(v uint64, w *W) bool {
				n++
				see(u, v, w)
				return true
			})
			if n != c.Size() {
				t.Fatalf("node %d: chain scan found %d entries, Size() = %d", u, n, c.Size())
			}
		} else {
			if used = int(head); used == 0 || used > e.inlineCap {
				t.Fatalf("node %d: head word counts %d inline slots", u, used)
			}
			for i := 1; i <= used; i++ {
				see(u, row[i].v, &row[i].w)
			}
		}
		if !isZero(slot[W]{w: row[0].w}) {
			t.Fatalf("node %d: the head word carries a payload: %+v", u, row[0])
		}
		for i := used + 1; i < len(row); i++ {
			if !isZero(row[i]) {
				t.Fatalf("node %d (head %#x): unused small slot %d is %+v, want zero", u, head, i, row[i])
			}
		}
	}
	e.lcht.ForEachRef(func(u uint64, _ *slot[W]) bool {
		visit(u, e.lcht.RowHashed(hashutil.Key64(u), u))
		return true
	})
	ldlChained := false
	for i := range e.ldl {
		visit(e.ldl[i].u, e.ldl[i].row)
		ldlChained = ldlChained || e.chainOf(e.ldl[i].row) != nil
	}
	if len(e.ldl) != 0 {
		cov.ldl++
	}
	if ldlChained {
		cov.ldlChained++
	}

	// The registry: a number is live — named by exactly one cell — or on
	// the free list, never both and never neither.
	free := map[uint32]bool{}
	for _, no := range e.free {
		if free[no] || live[uint64(no)] || int(no) >= len(e.chains) || e.chains[no] != nil {
			t.Fatalf("free list %v: number %d is listed twice, live or out of range", e.free, no)
		}
		free[no] = true
	}
	for no, c := range e.chains {
		if (c != nil) != live[uint64(no)] || (c == nil) != free[uint32(no)] {
			t.Fatalf("chain number %d: registered %v, named by a cell %v, free %v", no, c != nil, live[uint64(no)], free[uint32(no)])
		}
	}
	if got := e.stats().Chains; got != len(e.chains)-len(e.free) || got != len(live) {
		t.Fatalf("Stats().Chains = %d, registry %d − free %d, cells name %d", got, len(e.chains), len(e.free), len(live))
	}
	if cap(e.free) < len(e.chains) {
		t.Fatalf("free list has room for %d of %d numbers: a release would allocate", cap(e.free), len(e.chains))
	}
	for i := range e.newRow {
		if !isZero(e.newRow[i]) {
			t.Fatalf("newRow[%d] = %+v between ops, want zero", i, e.newRow[i])
		}
	}

	// The S-DL, and the per-node counts kept beside it.
	parked := map[uint64]int{}
	corner := false
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
		row := cells[u]
		switch {
		case row == nil:
			t.Fatalf("node %d has parked edges and no cell", u)
		case e.chainOf(row) != nil:
		case int(row[0].v) < e.inlineCap:
			t.Fatalf("node %d has parked edges beside %d free inline slots", u, e.inlineCap-int(row[0].v))
		default:
			corner = true
		}
	}
	if corner {
		cov.corners++
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
}

// steer picks, while some chained node has parked edges, one of that
// node's edges that is NOT parked: deleting those walks the chain down
// to its collapse with the S-DL entries still in place, which a blind
// stream all but never does. Smallest ids first, so a seed replays.
func steer[W any](e *engine[W], want oracle) (u, v uint64, ok bool) {
	u = ^uint64(0)
	for pu := range e.parked {
		if row := e.findPart2(hashutil.Key64(pu), pu); row != nil && e.chainOf(row) != nil && pu < u {
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
// seeded stream of ops over sources hot source nodes, alternating
// insert-heavy and delete-heavy stretches so chains grow through Table
// II, contract and collapse again and again; one op in three is steered.
// It returns what the states between the ops covered.
func runDifferential[W any](t *testing.T, seed uint64, ops int, sources uint64, g diffGraph, e *engine[W], weighted bool, weightOf func(*W) uint64) (cov coverage) {
	const targets = 48
	rng := hashutil.NewRNG(seed)
	want := oracle{}
	for i := 0; i < ops; i++ {
		u, v := rng.Uint64n(sources), rng.Uint64n(targets)
		insertBias := 7
		if i/600%2 == 1 {
			insertBias = 2
		}
		k := rng.Intn(10)
		chains := len(e.chains) - len(e.free)
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
		walkEngine(t, e, want, weightOf, &cov)
		if len(e.chains)-len(e.free) < chains {
			cov.collapses++
		}
		if g.NumEdges() != want.edges() || g.NumNodes() != uint64(len(want)) || g.Degree(u) != len(want[u]) {
			t.Fatalf("op %d: NumEdges %d NumNodes %d Degree(%d) %d; oracle %d, %d, %d",
				i, g.NumEdges(), g.NumNodes(), u, g.Degree(u), want.edges(), len(want), len(want[u]))
		}
	}
	return cov
}

func TestDifferentialGraphTinyCaps(t *testing.T) {
	corners := 0
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := tinyCaps
		cfg.Seed = seed
		g := NewGraph(cfg)
		corners += runDifferential(t, seed, 12000, 5, g, g.e, false, func(*struct{}) uint64 { return 1 }).corners
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
		corners += runDifferential(t, seed, 12000, 5, g, g.e, true, func(w *uint64) uint64 { return *w }).corners
	}
	t.Logf("%d ops ended with edges parked beside a node's full inline slots", corners)
	if corners == 0 {
		t.Fatal("the corner is not covered")
	}
}

// multiDiff drives a Multi as a weighted graph: an insert adds one more
// parallel edge to the pair, a delete removes the latest.
type multiDiff struct {
	m   *Multi
	ids map[[2]uint64][]uint64
	nid uint64
}

func (d *multiDiff) InsertEdge(u, v uint64) bool {
	k := [2]uint64{u, v}
	d.nid++
	d.ids[k] = append(d.ids[k], d.nid)
	d.m.InsertEdge(u, v, d.nid)
	return len(d.ids[k]) == 1
}

func (d *multiDiff) DeleteEdge(u, v uint64) bool {
	k := [2]uint64{u, v}
	ids := d.ids[k]
	if len(ids) == 0 {
		return d.m.DeleteEdge(u, v, 0)
	}
	d.ids[k] = ids[:len(ids)-1]
	return d.m.DeleteEdge(u, v, ids[len(ids)-1])
}

func (d *multiDiff) HasEdge(u, v uint64) bool { return d.m.HasEdge(u, v) }
func (d *multiDiff) Degree(u uint64) int      { return d.m.e.degree(u) }
func (d *multiDiff) NumEdges() uint64         { return d.m.NumPairs() }
func (d *multiDiff) NumNodes() uint64         { return d.m.e.nodes }

// TestDifferentialEveryRAndVariant runs the differential for every
// variant at several R — the width of the L-CHT row follows from both —
// with buckets of one cell, one kick and more sources than the first
// L-CHTs hold, so that rows are kicked from cell to cell, wait in the
// L-DL and come back, and nodes go inline → chain → inline meanwhile.
func TestDifferentialEveryRAndVariant(t *testing.T) {
	const ops, sources = 2500, 64
	variants := []struct {
		name string
		run  func(t *testing.T, cfg Config) coverage
	}{
		{"basic", func(t *testing.T, cfg Config) coverage {
			g := NewGraph(cfg)
			return runDifferential(t, cfg.Seed, ops, sources, g, g.e, false, func(*struct{}) uint64 { return 1 })
		}},
		{"weighted", func(t *testing.T, cfg Config) coverage {
			g := NewWeighted(cfg)
			return runDifferential(t, cfg.Seed, ops, sources, g, g.e, true, func(w *uint64) uint64 { return *w })
		}},
		{"multi", func(t *testing.T, cfg Config) coverage {
			g := &multiDiff{m: NewMulti(cfg), ids: map[[2]uint64][]uint64{}}
			return runDifferential(t, cfg.Seed, ops, sources, g, g.m.e, true, func(w *[]uint64) uint64 { return uint64(len(*w)) })
		}},
	}
	for _, variant := range variants {
		ldlChained := 0
		for _, r := range []int{1, 2, 3, 4, 6} {
			t.Run(fmt.Sprintf("%s/R=%d", variant.name, r), func(t *testing.T) {
				cfg := tinyCaps
				cfg.R, cfg.D, cfg.MaxKicks, cfg.LDLCap, cfg.Seed = r, 1, 1, 8, uint64(r)
				cov := variant.run(t, cfg)
				t.Logf("%+v", cov)
				if cov.ldl == 0 || cov.collapses == 0 {
					t.Fatal("no cell sat in the L-DL, or no chain collapsed: the run covers too little")
				}
				ldlChained += cov.ldlChained
			})
		}
		if ldlChained == 0 && !t.Failed() {
			t.Fatalf("%s: no chained cell sat in the L-DL at any R", variant.name)
		}
	}
}

// TestChainWalksOpeningAndTableII drives one node's S-CHT chain through
// every state its opening table adds: inline slots → the opening
// 16-cell table → that table rebuilt in place at n → Table II through
// two merges → deletions down to the 16-cell table → inline → gone. The
// whole engine is checked against the oracle after every op, and the
// weighted run gives each edge a weight of its own, so a payload that a
// rebuild or contraction drops or moves to another key fails.
func TestChainWalksOpeningAndTableII(t *testing.T) {
	up := []string{"inline", "[1]", "[2]", "[2 1]", "[2 1 1]", "[4 2]", "[4 2 2]", "[8 4]", "[8 4 4]"}
	down := []string{"[2]", "[1]", "inline", "removed"}
	t.Run("basic", func(t *testing.T) {
		g := NewGraph(Config{})
		walkChainStates(t, g, g.e, false, func(*struct{}) uint64 { return 1 }, up, down)
	})
	t.Run("weighted", func(t *testing.T) {
		g := NewWeighted(Config{})
		walkChainStates(t, g, g.e, true, func(w *uint64) uint64 { return *w }, up, down)
	})
}

// walkChainStates inserts the edges ⟨1,v⟩ of a single node, then
// deletes them all, checking the engine after every op and recording
// the lengths of the node's chain each time they change. The states the
// insertions pass must be up, and the last the deletions pass must be
// down. A weighted graph gets edge v inserted v%3+1 times.
func walkChainStates[W any](t *testing.T, g diffGraph, e *engine[W], weighted bool, weightOf func(*W) uint64, up, down []string) {
	t.Helper()
	const u, edges = 1, 160
	want := oracle{u: {}}
	var seen []string
	step := func() {
		t.Helper()
		if len(want[u]) == 0 {
			delete(want, u)
		}
		walkEngine(t, e, want, weightOf, &coverage{})
		state := "removed"
		if row := e.findPart2(hashutil.Key64(u), u); row != nil {
			state = "inline"
			if c := e.chainOf(row); c != nil {
				state = fmt.Sprint(c.Lengths())
			}
		}
		if len(seen) == 0 || seen[len(seen)-1] != state {
			seen = append(seen, state)
		}
	}
	times := func(v uint64) uint64 {
		if weighted {
			return v%3 + 1
		}
		return 1
	}
	for v := uint64(1); v <= edges; v++ {
		for i := uint64(0); i < times(v); i++ {
			g.InsertEdge(u, v)
			want[u][v]++
			step()
		}
	}
	if !slices.Equal(seen, up) {
		t.Fatalf("insertions passed the states %v, want %v", seen, up)
	}
	seen = seen[len(seen)-1:]
	for v := uint64(1); v <= edges; v++ {
		for i := uint64(0); i < times(v); i++ {
			if !g.DeleteEdge(u, v) {
				t.Fatalf("DeleteEdge(%d,%d) found nothing", u, v)
			}
			if want[u][v]--; want[u][v] == 0 {
				delete(want[u], v)
			}
			step()
		}
	}
	t.Logf("deletions passed the states %v", seen)
	if len(seen) < len(down) || !slices.Equal(seen[len(seen)-len(down):], down) {
		t.Fatalf("deletions passed the states %v, want them to end with %v", seen, down)
	}
}

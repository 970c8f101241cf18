package main

import (
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
	"cuckoograph/internal/sharded"
)

// mixRestGens is how many edges each source holds at rest. The window
// slides without growing (see next), so a source holds this many or one
// more, well under the six inline slots, and no node ever grows an S-CHT
// chain.
const mixRestGens = 3

// mixGen is one goroutine's deterministic op generator over its own
// range of sources. Edges of source idx are ⟨u(idx), gen⟩; new edges go
// to sources round-robin and the oldest edge is the one deleted, so the
// live generations of a source are the interval [lo, hi) computed from
// two counters, and the expected result of every call is known without
// a per-source table.
type mixGen struct {
	rng      *hashutil.RNG
	worker   uint64
	n        uint64 // sources owned
	inserted uint64 // new edges inserted so far
	deleted  uint64 // edges deleted so far
}

func (m *mixGen) u(idx uint64) uint64 { return m.worker<<40 | idx }

func (m *mixGen) lo(idx uint64) uint64 {
	lo := m.deleted / m.n
	if idx < m.deleted%m.n {
		lo++
	}
	return lo
}

func (m *mixGen) hi(idx uint64) uint64 {
	hi := mixRestGens + m.inserted/m.n
	if idx < m.inserted%m.n {
		hi++
	}
	return hi
}

// Single-op call kinds of sharded_mixed.
const (
	mixHasHit = iota
	mixHasMiss
	mixDegree
	mixInsertNew
	mixInsertDup
	mixDelete
)

// next draws the next call: 50 % HasEdge (half present, half absent),
// 10 % Degree, 10 % InsertEdge of an edge already present, and 30 %
// mutations that alternate between InsertEdge of a new edge and
// DeleteEdge of the oldest one. Alternating, not drawing, keeps the edge
// count within one of where it started: drawn independently the two
// counts drift apart like a random walk, by thousands over a run, and
// with a few thousand sources that is a whole edge per source, enough to
// change what a call costs from one second to the next.
func (m *mixGen) next() (kind int, u, v uint64) {
	x := m.rng.Next()
	p := x % 100
	idx := (x >> 8) % m.n
	switch {
	case p < 25:
		return mixHasHit, m.u(idx), m.lo(idx)
	case p < 50:
		return mixHasMiss, m.u(idx), m.hi(idx) + 7
	case p < 60:
		return mixDegree, m.u(idx), m.hi(idx) - m.lo(idx)
	case p < 70:
		return mixInsertDup, m.u(idx), m.lo(idx)
	case m.inserted == m.deleted:
		idx = m.inserted % m.n
		v = m.hi(idx)
		m.inserted++
		return mixInsertNew, m.u(idx), v
	default:
		idx = m.deleted % m.n
		v = m.lo(idx)
		m.deleted++
		return mixDelete, m.u(idx), v
	}
}

// newMixGens splits the sources between workers generators, one per caller.
func newMixGens(seed uint64, sz sizes, workers int) []*mixGen {
	gens := make([]*mixGen, workers)
	for w := range gens {
		gens[w] = &mixGen{rng: hashutil.NewRNG(seed + uint64(w)*0x51ed27), worker: uint64(w + 1), n: uint64(sz.mixSources / workers)}
	}
	return gens
}

func hashShardedMixed(seed uint64, sz sizes) uint64 {
	h := newFNV()
	for _, m := range newMixGens(seed, sz, 1) {
		for i := 0; i < 4096; i++ {
			kind, u, v := m.next()
			h.add(uint64(kind))
			h.add(u)
			h.add(v)
		}
	}
	return uint64(h)
}

// edgeStore is the single-op surface core.Graph and sharded.Graph share,
// so the layer probes can push one call stream through either.
type edgeStore interface {
	InsertEdge(u, v uint64) bool
	HasEdge(u, v uint64) bool
	DeleteEdge(u, v uint64) bool
	Degree(u uint64) int
}

// mixApply issues one generated call against g and reports whether the
// result was the expected one.
func mixApply(g edgeStore, kind int, u, v uint64) bool {
	switch kind {
	case mixHasHit:
		return g.HasEdge(u, v)
	case mixHasMiss:
		return !g.HasEdge(u, v)
	case mixDegree:
		return uint64(g.Degree(u)) == v
	case mixInsertNew:
		return g.InsertEdge(u, v)
	case mixInsertDup:
		return !g.InsertEdge(u, v)
	default:
		return g.DeleteEdge(u, v)
	}
}

// mixPreload loads the at-rest edges of every generator through the batch
// path, oldest generation first.
func mixPreload(g *sharded.Graph, gens []*mixGen) {
	c := core.NewChunker(sharded.LoadBatchSize, func(b core.Batch) { g.ApplyBatch(b) })
	for _, m := range gens {
		for gen := uint64(0); gen < mixRestGens; gen++ {
			for idx := uint64(0); idx < m.n; idx++ {
				c.Insert(m.u(idx), gen)
			}
		}
	}
	c.Flush()
}

func buildShardedMixed(seed uint64, sz sizes, _ string) (*system, error) {
	gens := newMixGens(seed, sz, 1)
	m := gens[0]
	base := liveHeap()
	g := sharded.New(sharded.Config{Shards: inProcShards})
	mixPreload(g, gens)
	sys := &system{shards: g.Shards()}
	sys.heapBytes, sys.heapEdges = heapDelta(base), g.NumEdges()

	// One view stays open beside the writer and is re-opened every
	// mixViewMuts mutations, so writes keep paying copy-on-write.
	view := g.Snapshot()
	lastMuts := g.Mutations()
	sys.close = func() { view.Release() }

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		root := tr.begin(-1, r, layerBenchmark, "round")
		start := time.Now()
		for done := 0; done < sz.mixOps; done += blockOps {
			n := min(blockOps, sz.mixOps-done)
			bad := int64(0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				kind, u, v := m.next()
				if !mixApply(g, kind, u, v) {
					bad++
				}
			}
			t1 := time.Now()
			rs.failed += bad
			tr.add(root, r, layerSharded, "single-op-mix", t0, t1)
			if g.Mutations()-lastMuts >= uint64(sz.mixViewMuts) {
				view.Release()
				view = g.Snapshot()
				lastMuts = g.Mutations()
				tr.add(root, r, layerSharded, "Release+Snapshot", t1, time.Now())
			}
		}
		rs.dur = time.Since(start)
		tr.end(root)
		rs.ops = int64(sz.mixOps)
		rs.attempted = rs.ops + 1
		rs.lat = callLatency(rs.dur, rs.ops)
		if g.NumEdges() != mixRestGens*m.n+m.inserted-m.deleted {
			rs.failed++
		}
		return rs
	}
	return sys, nil
}

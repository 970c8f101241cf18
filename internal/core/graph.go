package core

import (
	"math"

	"cuckoograph/internal/hashutil"
)

// Graph is the basic version of CuckooGraph (§III-A): a directed graph
// of distinct edges ⟨u,v⟩. Inserting an existing edge is a no-op.
type Graph struct {
	e *engine[struct{}]
}

// NewGraph returns an empty basic CuckooGraph.
func NewGraph(cfg Config) *Graph {
	cfg = cfg.Defaults()
	// Basic version: Part 2 is 2R small slots, each holding one v.
	return &Graph{e: newEngine[struct{}](cfg, 2*cfg.R)}
}

// InsertEdge adds ⟨u,v⟩, reporting whether it was newly inserted
// (insertion Step 1 of §III-A3 first queries for the edge). It is a
// size-1 batch: ApplyBatch is the only mutation path.
func (g *Graph) InsertEdge(u, v uint64) bool {
	b := [1]Op{InsertOp(u, v)}
	return g.ApplyBatch(b[:]).Inserted == 1
}

// HasEdge reports whether ⟨u,v⟩ is stored.
func (g *Graph) HasEdge(u, v uint64) bool { return g.e.hasEdge(u, v) }

// DeleteEdge removes ⟨u,v⟩, reporting whether it existed. Deletions may
// trigger reverse transformations (§III-A1).
func (g *Graph) DeleteEdge(u, v uint64) bool {
	b := [1]Op{DeleteOp(u, v)}
	return g.ApplyBatch(b[:]).Deleted == 1
}

// ApplyBatch applies the ops in order with basic-variant semantics:
// duplicate inserts and deletes of absent edges are no-ops. The result
// is identical — down to the physical structure and every Stats
// counter — to applying the same ops one by one: every op makes its own
// L-CHT probe, and what a batch saves is paid above the engine (one
// lock, one WAL record, one commit).
func (g *Graph) ApplyBatch(b Batch) BatchResult { return g.ApplyBatchFunc(b, nil, nil) }

// ApplyBatchFunc is ApplyBatch with two observers, either of which may
// be nil. Both see exactly the ops that change the graph, in application
// order: never a duplicate insert or a delete of an absent edge. before
// runs just ahead of the change: it is handed the op's source node u and
// u's degree (0 for a node about to be created) and returns nil, or a
// slice of that length which the engine fills with u's successors from
// the cell the op already probed — how snapshot layers copy on write.
// onApplied runs just after it — how durability layers log the sub-batch.
func (g *Graph) ApplyBatchFunc(b Batch, before func(u uint64, deg int) []uint64, onApplied func(Op)) BatchResult {
	return g.e.applyBatch(b, struct{}{}, nil, nil, before, onApplied)
}

// ForEachSuccessor calls fn for every successor of u until fn returns
// false.
func (g *Graph) ForEachSuccessor(u uint64, fn func(v uint64) bool) {
	g.e.forEachKeyOf(g.e.findPart2(hashutil.Key64(u), u), u, fn)
}

// AppendSuccessors appends every successor of u to dst and returns the
// extended slice (nil input stays nil for a node with no edges): the
// neighbour scan for callers that keep a scratch slice across calls.
func (g *Graph) AppendSuccessors(u uint64, dst []uint64) []uint64 {
	return g.e.appendOf(g.e.findPart2(hashutil.Key64(u), u), u, dst)
}

// Successors returns u's successors as a fresh slice.
func (g *Graph) Successors(u uint64) []uint64 { return g.AppendSuccessors(u, nil) }

// Degree returns u's out-degree without iterating the adjacency:
// inline slots and S-CHT chains track their population directly.
func (g *Graph) Degree(u uint64) int { return g.e.degree(u) }

// ForEachNode calls fn for every node with at least one out-edge.
func (g *Graph) ForEachNode(fn func(u uint64) bool) { g.e.forEachNode(fn) }

// NumEdges returns the number of distinct edges stored.
func (g *Graph) NumEdges() uint64 { return g.e.edges }

// NumNodes returns the number of distinct source nodes stored.
func (g *Graph) NumNodes() uint64 { return g.e.nodes }

// MemoryUsage returns the structural bytes of the whole structure.
func (g *Graph) MemoryUsage() uint64 { return g.e.memoryUsage(0) }

// Stats returns structural counters for experiments.
func (g *Graph) Stats() Stats { return g.e.stats() }

// Weighted is the extended version of CuckooGraph for streaming
// scenarios with duplicate edges (§III-B). Each distinct ⟨u,v⟩ carries a
// weight w; inserting an existing edge increments w, deleting decrements
// it and removes the edge at zero. Part 2 holds R inline ⟨v,w⟩ slots
// (two small slots per record).
type Weighted struct {
	e *engine[uint64]
}

// NewWeighted returns an empty weighted CuckooGraph.
func NewWeighted(cfg Config) *Weighted {
	cfg = cfg.Defaults()
	return &Weighted{e: newEngine[uint64](cfg, cfg.R)}
}

// InsertEdge adds one occurrence of ⟨u,v⟩ and reports whether the edge
// is new (weight transitioned 0→1). Like every weighted mutation it is
// a size-1 batch over the shared batch path.
func (w *Weighted) InsertEdge(u, v uint64) bool { return w.Add(u, v, 1) }

// Add adds delta occurrences of ⟨u,v⟩, reporting whether the edge is new.
// Adding zero changes nothing, and a weight saturates at 2⁶⁴−1.
func (w *Weighted) Add(u, v, delta uint64) bool {
	if delta == 0 {
		return false
	}
	b := [1]Op{InsertOp(u, v)}
	return w.e.applyBatch(b[:], delta, addWeight(delta), nil, nil, nil).Inserted == 1
}

// addWeight returns the insert hook that adds delta to an existing
// edge's weight, saturating instead of wrapping to zero; it reports
// whether the weight changed.
func addWeight(delta uint64) func(*uint64) bool {
	return func(p *uint64) bool {
		add := min(delta, math.MaxUint64-*p)
		*p += add
		return add != 0
	}
}

// ApplyBatch applies the ops in order with weighted semantics: an
// insert on an existing edge increments its weight, a delete decrements
// and removes the edge at zero. Inserted counts 0→1 transitions,
// Deleted counts edges whose weight reached zero, Updated counts
// in-place weight changes.
func (w *Weighted) ApplyBatch(b Batch) BatchResult {
	return w.e.applyBatch(b, 1, addWeight(1), weightedDelete, nil, nil)
}

// weightedDelete is the weighted delete hook: decrement in place until
// the last occurrence, then ask for physical removal.
func weightedDelete(p *uint64) bool {
	if *p > 1 {
		*p--
		return false
	}
	return true
}

// HasEdge reports whether ⟨u,v⟩ has weight ≥ 1.
func (w *Weighted) HasEdge(u, v uint64) bool { return w.e.hasEdge(u, v) }

// Weight returns the weight of ⟨u,v⟩ and whether it exists.
func (w *Weighted) Weight(u, v uint64) (uint64, bool) {
	if p := w.e.refSlot(u, v); p != nil {
		return *p, true
	}
	return 0, false
}

// DeleteEdge removes one occurrence of ⟨u,v⟩; the edge disappears when
// its weight reaches zero. It reports whether the edge existed.
func (w *Weighted) DeleteEdge(u, v uint64) bool {
	b := [1]Op{DeleteOp(u, v)}
	return w.e.applyBatch(b[:], 0, nil, weightedDelete, nil, nil).Applied() == 1
}

// DeleteAll removes the edge regardless of weight.
func (w *Weighted) DeleteAll(u, v uint64) bool {
	b := [1]Op{DeleteOp(u, v)}
	return w.e.applyBatch(b[:], 0, nil, nil, nil, nil).Deleted == 1
}

// ForEachSuccessor calls fn with every successor of u and its weight.
func (w *Weighted) ForEachSuccessor(u uint64, fn func(v, weight uint64) bool) {
	w.e.forEachSuccessor(u, func(v uint64, p *uint64) bool { return fn(v, *p) })
}

// Degree returns u's out-degree (distinct successors) without
// iterating the adjacency.
func (w *Weighted) Degree(u uint64) int { return w.e.degree(u) }

// ForEachNode calls fn for every node with at least one out-edge.
func (w *Weighted) ForEachNode(fn func(u uint64) bool) { w.e.forEachNode(fn) }

// NumEdges returns the number of distinct edges.
func (w *Weighted) NumEdges() uint64 { return w.e.edges }

// NumNodes returns the number of distinct source nodes.
func (w *Weighted) NumNodes() uint64 { return w.e.nodes }

// MemoryUsage returns the structural bytes of the whole structure.
func (w *Weighted) MemoryUsage() uint64 { return w.e.memoryUsage(8) }

// Stats returns structural counters for experiments.
func (w *Weighted) Stats() Stats { return w.e.stats() }

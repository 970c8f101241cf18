// Package graphstore defines the interfaces every graph storage scheme in
// this repository implements. CuckooGraph and all baseline competitors
// (LiveGraph, Sortledton, WBI, Spruce) satisfy Store, so the analytics
// and benchmark harnesses treat them uniformly.
package graphstore

import "cuckoograph/internal/csr"

// NodeID identifies a graph node. The paper uses 8-byte identifiers.
type NodeID = uint64

// Store is a directed dynamic graph holding distinct edges ⟨u,v⟩.
type Store interface {
	// InsertEdge adds the edge ⟨u,v⟩. It reports whether the edge was
	// newly inserted (false if it already existed).
	InsertEdge(u, v NodeID) bool

	// HasEdge reports whether the edge ⟨u,v⟩ is stored.
	HasEdge(u, v NodeID) bool

	// DeleteEdge removes the edge ⟨u,v⟩, reporting whether it existed.
	DeleteEdge(u, v NodeID) bool

	// ForEachSuccessor calls fn for every successor v of u until fn
	// returns false. Order is unspecified.
	ForEachSuccessor(u NodeID, fn func(v NodeID) bool)

	// ForEachNode calls fn for every node with at least one out-edge
	// until fn returns false. Order is unspecified.
	ForEachNode(fn func(u NodeID) bool)

	// NumEdges returns the number of distinct edges stored.
	NumEdges() uint64

	// MemoryUsage returns the structural bytes held by the store:
	// arrays, buckets, block headers and one machine word per pointer.
	// It deliberately excludes Go runtime overhead so that the space
	// comparison across schemes matches the paper's physical-memory
	// metric without GC skew.
	MemoryUsage() uint64
}

// Indexed is the analytics-acceleration capability: a store (in
// practice a frozen View) that can hand out a compiled compressed-
// sparse-row index of itself. analytics.BFS, PageRank and
// ConnectedComponents type-assert for it and, when present, run over
// the index's flat dense-id arrays instead of per-edge store probes and
// per-node map allocations; every other store runs the identical
// algorithms through the Store interface (the fallback path, which
// doubles as the differential oracle for the CSR one), as do the other
// four tasks on every store. Implementations memoize the index — the sharded engine builds
// it lazily per snapshot epoch and frees it with the view's last
// Release — so CSR() is cheap to call on every kernel entry.
type Indexed interface {
	// CSR returns the compiled index of the store's current (frozen)
	// contents. The index is immutable and safe for concurrent use.
	CSR() *csr.Index
}

// Degreer is the O(1)-ish degree capability: stores that track
// per-node population counters (the CuckooGraph engines, whose Degree
// reads R counters instead of scanning the adjacency) implement it,
// and the Degree helper below prefers it over a full successor scan.
type Degreer interface {
	Degree(u NodeID) int
}

// Successors collects u's successors into a fresh slice.
func Successors(s Store, u NodeID) []NodeID {
	var out []NodeID
	s.ForEachSuccessor(u, func(v NodeID) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Degree returns u's out-degree: the store's counter-backed Degree
// when it has one (see Degreer), a successor scan otherwise.
func Degree(s Store, u NodeID) int {
	if d, ok := s.(Degreer); ok {
		return d.Degree(u)
	}
	n := 0
	s.ForEachSuccessor(u, func(NodeID) bool {
		n++
		return true
	})
	return n
}

// Factory constructs an empty store; the benchmark harness uses one per
// scheme so each trial starts cold.
type Factory struct {
	Name string
	New  func() Store
}

package cuckoograph

import (
	"io"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
)

// SafeGraph is the concurrency-safe CuckooGraph: a thin alias over the
// sharded engine, which hash-partitions edges by source node across
// Options.ShardCount independent shards (each a private single-writer
// CuckooGraph behind its own read-write lock). Mutations on different
// shards proceed in parallel; point queries and traversals take only
// the owning shard's read lock. This is the deployment shape used by
// the server integrations (§V-F runs the structure behind Redis's
// command loop).
//
// Traversal callbacks run on a point-in-time copy of the relevant
// successor or node set, taken under the shard read lock and invoked
// after it is released — so callbacks may re-enter the graph, including
// mutating it, without deadlocking.
type SafeGraph struct {
	s *sharded.Graph
}

// NewSafe returns a concurrency-safe basic CuckooGraph.
func NewSafe() *SafeGraph { return NewSafeWithOptions(Options{}) }

// NewSafeWithOptions returns a concurrency-safe graph with the given
// tuning.
func NewSafeWithOptions(o Options) *SafeGraph {
	return &SafeGraph{s: sharded.New(o.shardedConfig())}
}

// LoadSafe reads a snapshot produced by Save (or by Graph.Save — the
// formats are identical) into a fresh SafeGraph. Snapshots round-trip
// across shard counts.
func LoadSafe(r io.Reader, o Options) (*SafeGraph, error) {
	s, err := sharded.Load(r, o.shardedConfig())
	if err != nil {
		return nil, err
	}
	return &SafeGraph{s: s}, nil
}

// Shards returns the number of partitions backing this graph.
func (s *SafeGraph) Shards() int { return s.s.Shards() }

// InsertEdge adds ⟨u,v⟩, reporting whether it is new.
func (s *SafeGraph) InsertEdge(u, v NodeID) bool { return s.s.InsertEdge(u, v) }

// DeleteEdge removes ⟨u,v⟩, reporting whether it existed.
func (s *SafeGraph) DeleteEdge(u, v NodeID) bool { return s.s.DeleteEdge(u, v) }

// HasEdge reports whether ⟨u,v⟩ is stored.
func (s *SafeGraph) HasEdge(u, v NodeID) bool { return s.s.HasEdge(u, v) }

// ForEachSuccessor calls fn for each successor of u until fn returns
// false, without requiring the caller to manage any lock.
func (s *SafeGraph) ForEachSuccessor(u NodeID, fn func(v NodeID) bool) {
	s.s.ForEachSuccessor(u, fn)
}

// ForEachNode calls fn for every node with at least one out-edge.
func (s *SafeGraph) ForEachNode(fn func(u NodeID) bool) { s.s.ForEachNode(fn) }

// Successors returns u's successors as a fresh slice.
func (s *SafeGraph) Successors(u NodeID) []NodeID { return s.s.Successors(u) }

// Degree returns u's out-degree.
func (s *SafeGraph) Degree(u NodeID) int { return s.s.Degree(u) }

// NumEdges returns the number of distinct stored edges.
func (s *SafeGraph) NumEdges() uint64 { return s.s.NumEdges() }

// NumNodes returns the number of distinct source nodes.
func (s *SafeGraph) NumNodes() uint64 { return s.s.NumNodes() }

// MemoryUsage returns the structural bytes summed across shards.
func (s *SafeGraph) MemoryUsage() uint64 { return s.s.MemoryUsage() }

// Stats returns structural counters merged across shards.
func (s *SafeGraph) Stats() core.Stats { return s.s.Stats() }

// BFS traverses from root, returning the visited nodes in level order.
// It runs on a frozen view taken for the call and released on return,
// so the result is of one epoch even under concurrent mutation; to run
// several jobs on the same epoch, take a Snapshot.
func (s *SafeGraph) BFS(root NodeID) []NodeID {
	f := s.Snapshot()
	defer f.Release()
	return f.BFS(root)
}

// PageRank runs iters rounds of the power method (damping 0.85), on a
// frozen view taken for the call like BFS.
func (s *SafeGraph) PageRank(iters int) map[NodeID]float64 {
	f := s.Snapshot()
	defer f.Release()
	return f.PageRank(iters)
}

// Save snapshots the graph as a consistent cut even under concurrent
// mutation: the graph is frozen only briefly and the serialization
// streams from a frozen view while writers proceed.
func (s *SafeGraph) Save(w io.Writer) error { return s.s.Save(w) }

// FrozenView is an immutable, cross-shard-consistent snapshot of a
// SafeGraph, stamped with a monotonic epoch. Taking one copies nothing;
// the graph lazily copies-on-write only the adjacency cells later
// mutations actually touch, so long analytics passes run on a frozen
// view without ever blocking writers. Call Release when done.
type FrozenView struct {
	v *sharded.View
}

// Snapshot returns a frozen view of the graph as it is now.
func (s *SafeGraph) Snapshot() *FrozenView {
	return &FrozenView{v: s.s.Snapshot()}
}

// Epoch returns the monotonic snapshot epoch of the view.
func (f *FrozenView) Epoch() uint64 { return f.v.Epoch() }

// Release drops the view; the graph stops preserving state for it.
func (f *FrozenView) Release() { f.v.Release() }

// HasEdge reports whether ⟨u,v⟩ was stored at the view's epoch.
func (f *FrozenView) HasEdge(u, v NodeID) bool { return f.v.HasEdge(u, v) }

// Successors returns u's successors at the view's epoch.
func (f *FrozenView) Successors(u NodeID) []NodeID { return f.v.Successors(u) }

// ForEachSuccessor calls fn for each successor u had at the view's
// epoch until fn returns false.
func (f *FrozenView) ForEachSuccessor(u NodeID, fn func(v NodeID) bool) {
	f.v.ForEachSuccessor(u, fn)
}

// ForEachNode calls fn for every node that had an out-edge at the epoch.
func (f *FrozenView) ForEachNode(fn func(u NodeID) bool) { f.v.ForEachNode(fn) }

// NumEdges returns the number of distinct edges at the view's epoch.
func (f *FrozenView) NumEdges() uint64 { return f.v.NumEdges() }

// NumNodes returns the number of distinct source nodes at the epoch.
func (f *FrozenView) NumNodes() uint64 { return f.v.NumNodes() }

// BFS traverses the frozen view from root — online analytics that never
// stalls ingestion. The view's CSR index is compiled on the first job
// and reused by the later ones.
func (f *FrozenView) BFS(root NodeID) []NodeID { return analytics.BFS(f.v, root) }

// PageRank runs iters rounds of the power method over the frozen view.
func (f *FrozenView) PageRank(iters int) map[NodeID]float64 {
	return analytics.PageRank(f.v, iters)
}

// Load reads a snapshot produced by Graph.Save into a fresh Graph.
func Load(r io.Reader) (*Graph, error) { return LoadWithOptions(r, Options{}) }

// LoadWithOptions reads a snapshot with explicit tuning.
func LoadWithOptions(r io.Reader, o Options) (*Graph, error) {
	return core.LoadGraph(r, o.coreConfig())
}

// LoadWeighted reads a snapshot produced by Weighted.Save.
func LoadWeighted(r io.Reader) (*Weighted, error) {
	return LoadWeightedWithOptions(r, Options{})
}

// LoadWeightedWithOptions reads a weighted snapshot with explicit tuning.
func LoadWeightedWithOptions(r io.Reader, o Options) (*Weighted, error) {
	return core.LoadWeighted(r, o.coreConfig())
}

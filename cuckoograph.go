package cuckoograph

import (
	"cuckoograph/internal/core"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
)

// NodeID identifies a graph node (an 8-byte identifier, as in the paper).
type NodeID = graphstore.NodeID

// Options tunes a CuckooGraph instance. The zero value is the paper's
// recommended configuration (d=8, R=3, G=0.9, Λ=0.5, T=250).
type Options struct {
	// CellsPerBucket is d, the number of cells per bucket (§V-B tunes
	// d ∈ {4,8,16,32}; the paper settles on 8).
	CellsPerBucket int
	// LargeSlots is R, the number of large slots per cell. Part 2 of a
	// cell holds 2R inline neighbours (R for the weighted and multi-edge
	// variants) before transforming into an S-CHT chain of at most R
	// tables. The small slots sit in the cell by value; where the paper
	// draws R large slots pointing at the tables, a cell here keeps one
	// word naming the node's chain, which owns its ≤ R tables.
	LargeSlots int
	// MaxKicks is T, the kick-loop budget before an insertion fails into
	// a denylist (§V-B tunes T ∈ {50,150,250,350}; at most 65535).
	MaxKicks int
	// ExpandAt is G, the loading-rate threshold for expansion (§V-B
	// tunes G ∈ {0.8,0.85,0.9,0.95}).
	ExpandAt float64
	// ContractAt is Λ, the overall loading-rate threshold for
	// contraction; the analysis of §IV-B assumes Λ ≤ ⅔·G.
	ContractAt float64
	// InitialLength and SCHTLength set the starting lengths of the
	// L-CHT and of each 1st S-CHT (n). CuckooGraph needs no prior
	// knowledge of the graph: both default to tiny tables that grow on
	// demand.
	InitialLength int
	SCHTLength    int
	// DenylistDisabled turns off the DENYLIST optimisation, forcing an
	// expansion on every insertion failure (the §V-C ablation baseline).
	DenylistDisabled bool
	// Seed fixes the hash seeds and eviction choices for reproducibility.
	Seed uint64
	// ShardCount is P, the number of source-node partitions used by the
	// concurrency-safe SafeGraph. It is rounded up to a power of two;
	// zero defaults to runtime.GOMAXPROCS(0). Single-writer Graph,
	// Weighted and Multi ignore it.
	ShardCount int
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		D:               o.CellsPerBucket,
		R:               o.LargeSlots,
		MaxKicks:        o.MaxKicks,
		G:               o.ExpandAt,
		Lambda:          o.ContractAt,
		LCHTBase:        o.InitialLength,
		SCHTBase:        o.SCHTLength,
		DisableDenylist: o.DenylistDisabled,
		Seed:            o.Seed,
	}
}

func (o Options) shardedConfig() sharded.Config {
	return sharded.Config{Core: o.coreConfig(), Shards: o.ShardCount}
}

// Graph is the basic version of CuckooGraph: a directed dynamic graph of
// distinct edges. It is not safe for concurrent mutation; wrap with a
// lock for shared use.
type Graph struct {
	g *core.Graph
}

// New returns an empty Graph with the paper's default parameters.
func New() *Graph { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty Graph with the given tuning.
func NewWithOptions(o Options) *Graph {
	return &Graph{g: core.NewGraph(o.coreConfig())}
}

// InsertEdge adds the directed edge ⟨u,v⟩, reporting whether it is new.
func (g *Graph) InsertEdge(u, v NodeID) bool { return g.g.InsertEdge(u, v) }

// HasEdge reports whether ⟨u,v⟩ is stored.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.g.HasEdge(u, v) }

// DeleteEdge removes ⟨u,v⟩, reporting whether it existed.
func (g *Graph) DeleteEdge(u, v NodeID) bool { return g.g.DeleteEdge(u, v) }

// ForEachSuccessor calls fn for each successor of u until fn returns false.
func (g *Graph) ForEachSuccessor(u NodeID, fn func(v NodeID) bool) {
	g.g.ForEachSuccessor(u, fn)
}

// Successors returns u's successors as a fresh slice.
func (g *Graph) Successors(u NodeID) []NodeID { return graphstore.Successors(g.g, u) }

// Degree returns u's out-degree.
func (g *Graph) Degree(u NodeID) int { return graphstore.Degree(g.g, u) }

// ForEachNode calls fn for every node with at least one out-edge.
func (g *Graph) ForEachNode(fn func(u NodeID) bool) { g.g.ForEachNode(fn) }

// NumEdges returns the number of distinct stored edges.
func (g *Graph) NumEdges() uint64 { return g.g.NumEdges() }

// NumNodes returns the number of distinct source nodes.
func (g *Graph) NumNodes() uint64 { return g.g.NumNodes() }

// MemoryUsage returns the structural bytes held by the graph.
func (g *Graph) MemoryUsage() uint64 { return g.g.MemoryUsage() }

// Stats exposes structural counters (tables, cells, loading rates,
// denylist lengths, kick counts) for instrumentation.
func (g *Graph) Stats() core.Stats { return g.g.Stats() }

// Weighted is the extended version of CuckooGraph for streaming
// scenarios with duplicate edges (§III-B): every distinct ⟨u,v⟩ carries
// a weight counting its multiplicity.
type Weighted struct {
	w *core.Weighted
}

// NewWeighted returns an empty weighted graph with default parameters.
func NewWeighted() *Weighted { return NewWeightedWithOptions(Options{}) }

// NewWeightedWithOptions returns an empty weighted graph with the given
// tuning.
func NewWeightedWithOptions(o Options) *Weighted {
	return &Weighted{w: core.NewWeighted(o.coreConfig())}
}

// InsertEdge adds one occurrence of ⟨u,v⟩ (weight +1), reporting whether
// the edge is new.
func (w *Weighted) InsertEdge(u, v NodeID) bool { return w.w.InsertEdge(u, v) }

// Add adds delta occurrences of ⟨u,v⟩, reporting whether the edge is new.
func (w *Weighted) Add(u, v NodeID, delta uint64) bool { return w.w.Add(u, v, delta) }

// HasEdge reports whether ⟨u,v⟩ has weight ≥ 1.
func (w *Weighted) HasEdge(u, v NodeID) bool { return w.w.HasEdge(u, v) }

// Weight returns the weight of ⟨u,v⟩ and whether the edge exists.
func (w *Weighted) Weight(u, v NodeID) (uint64, bool) { return w.w.Weight(u, v) }

// DeleteEdge removes one occurrence; the edge disappears at weight zero.
func (w *Weighted) DeleteEdge(u, v NodeID) bool { return w.w.DeleteEdge(u, v) }

// DeleteAll removes ⟨u,v⟩ regardless of weight.
func (w *Weighted) DeleteAll(u, v NodeID) bool { return w.w.DeleteAll(u, v) }

// ForEachSuccessor calls fn with each successor of u and its weight.
func (w *Weighted) ForEachSuccessor(u NodeID, fn func(v NodeID, weight uint64) bool) {
	w.w.ForEachSuccessor(u, fn)
}

// ForEachNode calls fn for every node with at least one out-edge.
func (w *Weighted) ForEachNode(fn func(u NodeID) bool) { w.w.ForEachNode(fn) }

// NumEdges returns the number of distinct edges.
func (w *Weighted) NumEdges() uint64 { return w.w.NumEdges() }

// NumNodes returns the number of distinct source nodes.
func (w *Weighted) NumNodes() uint64 { return w.w.NumNodes() }

// MemoryUsage returns the structural bytes held by the graph.
func (w *Weighted) MemoryUsage() uint64 { return w.w.MemoryUsage() }

// Stats exposes structural counters for instrumentation.
func (w *Weighted) Stats() core.Stats { return w.w.Stats() }

// Multi is the multi-edge variant used by the Neo4j integration (§V-G):
// several distinct edges, each with its own id, may connect the same
// node pair; Edges returns an O(1) iterator over them.
type Multi struct {
	m *core.Multi
}

// NewMulti returns an empty multi-edge graph with default parameters.
func NewMulti() *Multi { return NewMultiWithOptions(Options{}) }

// NewMultiWithOptions returns an empty multi-edge graph with the given
// tuning.
func NewMultiWithOptions(o Options) *Multi {
	return &Multi{m: core.NewMulti(o.coreConfig())}
}

// InsertEdge records edge id from u to v.
func (m *Multi) InsertEdge(u, v NodeID, id uint64) { m.m.InsertEdge(u, v, id) }

// HasEdge reports whether any edge connects u to v.
func (m *Multi) HasEdge(u, v NodeID) bool { return m.m.HasEdge(u, v) }

// Edges returns an iterator over the ids of edges from u to v.
func (m *Multi) Edges(u, v NodeID) *core.EdgeIterator { return m.m.Edges(u, v) }

// DeleteEdge removes the specific edge id between u and v.
func (m *Multi) DeleteEdge(u, v NodeID, id uint64) bool { return m.m.DeleteEdge(u, v, id) }

// ForEachSuccessor calls fn for each distinct successor with its
// parallel-edge count.
func (m *Multi) ForEachSuccessor(u NodeID, fn func(v NodeID, parallel int) bool) {
	m.m.ForEachSuccessor(u, fn)
}

// NumEdges returns the total edge count including parallel edges.
func (m *Multi) NumEdges() uint64 { return m.m.NumEdges() }

// NumPairs returns the number of distinct connected node pairs.
func (m *Multi) NumPairs() uint64 { return m.m.NumPairs() }

// MemoryUsage returns the structural bytes held by the graph.
func (m *Multi) MemoryUsage() uint64 { return m.m.MemoryUsage() }

package cuckoograph

import (
	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
)

// NodeID identifies a graph node (an 8-byte identifier, as in the paper).
type NodeID = uint64

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
type Graph = core.Graph

// New returns an empty Graph with the paper's default parameters.
func New() *Graph { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty Graph with the given tuning.
func NewWithOptions(o Options) *Graph { return core.NewGraph(o.coreConfig()) }

// Weighted is the extended version of CuckooGraph for streaming
// scenarios with duplicate edges (§III-B): every distinct ⟨u,v⟩ carries
// a weight counting its multiplicity.
type Weighted = core.Weighted

// NewWeighted returns an empty weighted graph with default parameters.
func NewWeighted() *Weighted { return NewWeightedWithOptions(Options{}) }

// NewWeightedWithOptions returns an empty weighted graph with the given
// tuning.
func NewWeightedWithOptions(o Options) *Weighted { return core.NewWeighted(o.coreConfig()) }

// Multi is the multi-edge variant used by the Neo4j integration (§V-G):
// several distinct edges, each with its own id, may connect the same
// node pair; Edges returns an O(1) iterator over them.
type Multi = core.Multi

// NewMulti returns an empty multi-edge graph with default parameters.
func NewMulti() *Multi { return NewMultiWithOptions(Options{}) }

// NewMultiWithOptions returns an empty multi-edge graph with the given
// tuning.
func NewMultiWithOptions(o Options) *Multi { return core.NewMulti(o.coreConfig()) }

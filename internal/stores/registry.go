// Package stores registers every graph storage scheme of the evaluation
// (§V-A "Competitors") behind the common graphstore.Store interface so
// the benchmark harness and the conformance tests can treat them
// uniformly: CuckooGraph (ours), LiveGraph, Sortledton, Wind-Bell Index
// and Spruce.
package stores

import (
	"cuckoograph/internal/core"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/stores/livegraph"
	"cuckoograph/internal/stores/sortledton"
	"cuckoograph/internal/stores/spruce"
	"cuckoograph/internal/stores/wbi"
)

// NewCuckooGraph returns a basic CuckooGraph as a graphstore.Store.
func NewCuckooGraph() graphstore.Store {
	return core.NewGraph(core.Config{})
}

// NewCuckooGraphWith returns a CuckooGraph with explicit tuning, for the
// parameter-sweep experiments.
func NewCuckooGraphWith(cfg core.Config) graphstore.Store {
	return core.NewGraph(cfg)
}

// NewShardedCuckooGraph returns the concurrent sharded engine as a
// graphstore.Store (shards defaulting to GOMAXPROCS), so the
// conformance suite exercises it alongside the single-writer stores.
func NewShardedCuckooGraph() graphstore.Store {
	return sharded.New(sharded.Config{})
}

// Evaluated returns the five schemes compared throughout §V, in the
// paper's plotting order.
func Evaluated() []graphstore.Factory {
	return []graphstore.Factory{
		{Name: "LiveGraph", New: func() graphstore.Store { return livegraph.New() }},
		{Name: "Spruce", New: func() graphstore.Store { return spruce.New() }},
		{Name: "Sortledton", New: func() graphstore.Store { return sortledton.New() }},
		{Name: "CuckooGraph", New: NewCuckooGraph},
		{Name: "WBI", New: func() graphstore.Store { return wbi.New(0) }},
	}
}

// All returns every store in the repository: the evaluated five plus
// the concurrent sharded engine, which the conformance suite pins
// against the same model.
func All() []graphstore.Factory {
	return append(Evaluated(),
		graphstore.Factory{Name: "CuckooGraph-Sharded", New: NewShardedCuckooGraph})
}

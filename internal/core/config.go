// Package core implements CuckooGraph (§III of the paper): an L-CHT
// chain keyed by source node u whose cells hold either up to 2R inline
// neighbour slots or the number of a per-node S-CHT chain, plus the
// DENYLIST optimisation for insertion failures. Three variants share the
// engine: the basic version (distinct edges), the extended weighted
// version for streams with duplicate edges (§III-B), and a multi-edge
// version whose slots carry edge-id lists (the Neo4j use case, §V-G).
package core

import "cuckoograph/internal/cuckoo"

// Config tunes CuckooGraph. The zero value maps to the paper's defaults
// (d=8, R=3, G=0.9, Λ=0.5, T=250; §V-B sets d, G, T by experiment).
type Config struct {
	// D is the number of cells per bucket in every L/S-CHT.
	D int
	// R is the number of large slots per cell; Part 2 holds 2R small
	// slots inline before transforming into an S-CHT chain of ≤R tables.
	R int
	// MaxKicks is T, the maximum kick loops before an insertion fails.
	MaxKicks int
	// G is the loading-rate threshold that triggers expansion.
	G float64
	// Lambda is the overall loading rate that triggers contraction.
	Lambda float64
	// LCHTBase is the initial length of the L-CHT (buckets in its larger
	// array). The structure grows from here without prior knowledge.
	LCHTBase int
	// SCHTBase is n, the length of the 1st S-CHT of a chain (even, at
	// least 2). At n = 2, the default, a chain opens at n/2, one bucket
	// per array, and its first Grow rebuilds that table in place at n.
	SCHTBase int
	// LDLCap and SDLCap bound the two denylists. When a denylist is full
	// a transformation is forced instead (the paper's fallback).
	LDLCap int
	SDLCap int
	// DisableDenylist switches to the ablation baseline of §V-C: every
	// insertion failure immediately forces an expansion.
	DisableDenylist bool
	// Seed makes the whole structure deterministic for testing.
	Seed uint64
}

// Defaults returns cfg with zero fields replaced by the paper defaults.
func (cfg Config) Defaults() Config {
	if cfg.D == 0 {
		cfg.D = 8
	}
	if cfg.R == 0 {
		cfg.R = 3
	}
	if cfg.MaxKicks == 0 {
		cfg.MaxKicks = 250
	}
	if cfg.G == 0 {
		cfg.G = 0.9
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.5
	}
	if cfg.LCHTBase == 0 {
		cfg.LCHTBase = 8
	}
	if cfg.SCHTBase == 0 {
		cfg.SCHTBase = 2
	}
	if cfg.LDLCap == 0 {
		cfg.LDLCap = 64
	}
	if cfg.SDLCap == 0 {
		cfg.SDLCap = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xC0FFEE
	}
	return cfg
}

func (cfg Config) chainConfig() cuckoo.Config {
	return cuckoo.Config{
		D:        cfg.D,
		MaxKicks: cfg.MaxKicks,
		G:        cfg.G,
		Lambda:   cfg.Lambda,
		R:        cfg.R,
		Seed:     cfg.Seed,
	}
}

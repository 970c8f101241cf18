// Package dataset synthesises the seven graph workloads of the paper's
// Table IV. The original traces (CAIDA, NotreDame, StackOverflow,
// WikiTalk, Weibo) are not redistributable, so each generator
// reproduces the published *shape* of its dataset — node count, stream
// length, duplication ratio, average degree and degree skew — at a
// configurable scale factor.
package dataset

import (
	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
)

// Edge is one stream item ⟨u,v⟩.
type Edge struct{ U, V uint64 }

// Spec describes one synthetic dataset in Table IV terms.
type Spec struct {
	Name     string
	Weighted bool // stream contains duplicate edges

	Nodes    uint64 // approximate node universe (# Nodes column)
	Stream   uint64 // # Edges column (with duplicates)
	Distinct uint64 // # Edges (dedup) column

	// SrcSkew/DstSkew shape the power-law degree distribution: node =
	// N·x^skew for uniform x, so larger values concentrate edges on few
	// nodes (higher max degree).
	SrcSkew float64
	DstSkew float64

	// Dense marks the DenseGraph near-clique; RegularDeg the SparseGraph
	// constant out-degree.
	Dense      bool
	RegularDeg int
}

// Specs returns the seven datasets of Table IV in paper order.
func Specs() []Spec {
	return []Spec{
		{Name: "CAIDA", Weighted: true, Nodes: 510_000, Stream: 27_120_000, Distinct: 850_000, SrcSkew: 4.0, DstSkew: 4.0},
		{Name: "NotreDame", Nodes: 330_000, Stream: 1_500_000, Distinct: 1_500_000, SrcSkew: 3.0, DstSkew: 3.0},
		{Name: "StackOverflow", Weighted: true, Nodes: 2_600_000, Stream: 63_500_000, Distinct: 36_230_000, SrcSkew: 3.5, DstSkew: 3.5},
		{Name: "WikiTalk", Weighted: true, Nodes: 2_990_000, Stream: 24_980_000, Distinct: 9_380_000, SrcSkew: 5.0, DstSkew: 5.0},
		{Name: "Weibo", Nodes: 58_660_000, Stream: 261_320_000, Distinct: 261_320_000, SrcSkew: 4.0, DstSkew: 4.0},
		{Name: "DenseGraph", Nodes: 8_000, Stream: 57_590_000, Distinct: 57_590_000, Dense: true},
		{Name: "SparseGraph", Nodes: 5_000_000, Stream: 30_000_000, Distinct: 30_000_000, RegularDeg: 6},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// skewed maps a uniform draw to a power-law node id in [0, n).
func skewed(rng *hashutil.RNG, n uint64, skew float64) uint64 {
	if skew <= 1 {
		return rng.Uint64n(n)
	}
	x := rng.Float64()
	// x^skew concentrates mass near 0.
	id := uint64(float64(n) * pow(x, skew))
	if id >= n {
		id = n - 1
	}
	return id
}

// pow is x^k for small positive k without importing math (k ≤ ~8 here,
// fractional part handled by square-root steps).
func pow(x, k float64) float64 {
	// Integer part by repeated multiplication, fractional by sqrt chain.
	r := 1.0
	for k >= 1 {
		r *= x
		k--
	}
	if k > 0 {
		// Approximate x^k for k in (0,1) with three sqrt refinements:
		// x^k ≈ x^(m/8) with m = round(8k).
		m := int(k*8 + 0.5)
		s := x
		frac := 1.0
		for bit := 4; bit >= 1; bit /= 2 {
			s = sqrt(s)
			if m&bit != 0 {
				frac *= s
			}
		}
		r *= frac
	}
	return r
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Generate produces the scaled edge stream of spec: node and edge counts
// divide by scale (minimum sizes keep tiny scales meaningful); the
// stream is deterministic in seed.
func Generate(spec Spec, scale uint64, seed uint64) []Edge {
	if scale == 0 {
		scale = 1
	}
	nodes := spec.Nodes / scale
	if nodes < 64 {
		nodes = 64
	}
	distinct := spec.Distinct / scale
	if distinct < 256 {
		distinct = 256
	}
	stream := spec.Stream / scale
	if stream < distinct {
		stream = distinct
	}
	rng := hashutil.NewRNG(seed | 1)

	switch {
	case spec.Dense:
		return generateDense(rng, nodes, distinct)
	case spec.RegularDeg > 0:
		return generateRegular(rng, nodes, distinct, spec.RegularDeg)
	default:
		return generateSkewed(rng, spec, nodes, distinct, stream)
	}
}

// generateDense emits a near-clique: edges sampled from the n² pair
// space until the target count, giving DenseGraph's 0.90 edge density.
func generateDense(rng *hashutil.RNG, nodes, distinct uint64) []Edge {
	if distinct > nodes*nodes*9/10 {
		nodes = isqrt(distinct*10/9) + 1
	}
	out := make([]Edge, 0, distinct)
	seen := make(map[uint64]bool, distinct)
	for uint64(len(out)) < distinct {
		u, v := rng.Uint64n(nodes), rng.Uint64n(nodes)
		key := u*nodes + v
		if !seen[key] {
			seen[key] = true
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

func isqrt(x uint64) uint64 {
	r := uint64(sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// generateRegular gives every node exactly deg distinct out-edges —
// SparseGraph's constant degree 6.
func generateRegular(rng *hashutil.RNG, nodes, distinct uint64, deg int) []Edge {
	perNode := distinct / uint64(deg)
	if perNode > nodes {
		perNode = nodes
	}
	out := make([]Edge, 0, perNode*uint64(deg))
	for u := uint64(0); u < perNode; u++ {
		used := make(map[uint64]bool, deg)
		for len(used) < deg {
			v := rng.Uint64n(nodes)
			if v != u && !used[v] {
				used[v] = true
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	return out
}

// generateSkewed draws a power-law distinct edge set, then extends the
// stream with duplicate re-draws until the published stream length.
func generateSkewed(rng *hashutil.RNG, spec Spec, nodes, distinct, stream uint64) []Edge {
	set := make(map[Edge]bool, distinct)
	out := make([]Edge, 0, stream)
	attempts := uint64(0)
	for uint64(len(set)) < distinct && attempts < distinct*40 {
		attempts++
		e := Edge{
			U: skewed(rng, nodes, spec.SrcSkew),
			V: skewed(rng, nodes, spec.DstSkew),
		}
		if !set[e] {
			set[e] = true
			out = append(out, e)
		}
	}
	// Duplicate phase: re-sample stored edges, skew-weighted by recency
	// to mimic heavy-hitter flows (CAIDA-style repetition).
	for uint64(len(out)) < stream {
		idx := uint64(float64(len(out)) * pow(rng.Float64(), 2.0))
		if idx >= uint64(len(out)) {
			idx = uint64(len(out)) - 1
		}
		out = append(out, out[idx])
	}
	return out
}

// Stats summarises a stream the way Table IV reports datasets.
type Stats struct {
	Name     string
	Weighted bool
	Nodes    uint64
	Edges    uint64 // stream length
	Dedup    uint64 // distinct edges
	AvgDeg   float64
	MaxDeg   uint64
	Density  float64
}

// Measure computes the Table IV row of a stream. It dogfoods the
// structure under test: the stream goes through the batched mutation
// path into a weighted CuckooGraph (whose deduplication and per-node
// cells yield distinct-edge and degree counts directly) plus a basic
// graph of ⟨x,x⟩ self-loop markers acting as the node-universe set, so
// measurement exercises the same ApplyBatch pipeline the benchmarks
// price.
func Measure(name string, weighted bool, stream []Edge) Stats {
	g := core.NewWeighted(core.Config{})
	universe := core.NewGraph(core.Config{})
	const chunk = 4096
	edges := core.NewChunker(chunk, func(b core.Batch) { g.ApplyBatch(b) })
	marks := core.NewChunker(2*chunk, func(b core.Batch) { universe.ApplyBatch(b) })
	for _, e := range stream {
		edges.Insert(e.U, e.V)
		marks.Insert(e.U, e.U)
		marks.Insert(e.V, e.V)
	}
	edges.Flush()
	marks.Flush()

	st := Stats{
		Name:     name,
		Weighted: weighted,
		Nodes:    universe.NumNodes(),
		Edges:    uint64(len(stream)),
		Dedup:    g.NumEdges(),
	}
	g.ForEachNode(func(u uint64) bool {
		var d uint64
		g.ForEachSuccessor(u, func(uint64, uint64) bool {
			d++
			return true
		})
		if d > st.MaxDeg {
			st.MaxDeg = d
		}
		return true
	})
	if st.Nodes > 0 {
		st.AvgDeg = float64(st.Dedup) / float64(st.Nodes)
		st.Density = float64(st.Dedup) / (float64(st.Nodes) * float64(st.Nodes))
	}
	return st
}

// Dedup returns the distinct edges of a stream in first-seen order (the
// paper de-duplicates before the memory experiments of §V-D).
func Dedup(stream []Edge) []Edge {
	seen := make(map[Edge]bool, len(stream))
	out := make([]Edge, 0, len(stream))
	for _, e := range stream {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

package core

import (
	"math"
	"testing"
	"testing/quick"

	"cuckoograph/internal/hashutil"
)

func TestWeightedSemantics(t *testing.T) {
	w := NewWeighted(Config{})
	if !w.InsertEdge(1, 2) {
		t.Fatal("first insert not new")
	}
	if w.InsertEdge(1, 2) {
		t.Fatal("second insert reported new")
	}
	if got, ok := w.Weight(1, 2); !ok || got != 2 {
		t.Fatalf("weight = %d,%v; want 2,true", got, ok)
	}
	if !w.DeleteEdge(1, 2) {
		t.Fatal("delete failed")
	}
	if got, _ := w.Weight(1, 2); got != 1 {
		t.Fatalf("weight after one delete = %d, want 1", got)
	}
	if !w.DeleteEdge(1, 2) {
		t.Fatal("final delete failed")
	}
	if w.HasEdge(1, 2) {
		t.Fatal("edge survives weight 0")
	}
	if w.DeleteEdge(1, 2) {
		t.Fatal("delete of absent edge reported success")
	}
}

func TestWeightedAddDelta(t *testing.T) {
	w := NewWeighted(Config{})
	w.Add(3, 4, 10)
	w.Add(3, 4, 5)
	if got, _ := w.Weight(3, 4); got != 15 {
		t.Fatalf("weight = %d, want 15", got)
	}
	if !w.DeleteAll(3, 4) {
		t.Fatal("DeleteAll failed")
	}
	if w.HasEdge(3, 4) {
		t.Fatal("edge survives DeleteAll")
	}
}

// TestWeightedAddKeepsWeightsPositive pins the two ways Add could store
// a weight of zero: a zero delta, and a sum that wraps past 2⁶⁴−1.
func TestWeightedAddKeepsWeightsPositive(t *testing.T) {
	w := NewWeighted(Config{})
	if w.Add(1, 2, 0) || w.HasEdge(1, 2) || w.NumEdges() != 0 {
		t.Fatal("Add with delta 0 stored an edge")
	}
	if _, ok := w.Weight(1, 2); ok {
		t.Fatal("Add with delta 0 gave the edge a weight")
	}
	w.InsertEdge(3, 4)
	if w.Add(3, 4, 0) {
		t.Fatal("Add with delta 0 reported a new edge")
	}
	if got, _ := w.Weight(3, 4); got != 1 {
		t.Fatalf("weight after Add 0 = %d, want 1", got)
	}
	w.Add(3, 4, math.MaxUint64)
	if got, ok := w.Weight(3, 4); !ok || got != math.MaxUint64 {
		t.Fatalf("weight = %d,%v; want saturation at 2⁶⁴−1", got, ok)
	}
	res := w.ApplyBatch(Batch{InsertOp(3, 4)})
	if got, _ := w.Weight(3, 4); got != math.MaxUint64 || res.Updated != 0 {
		t.Fatalf("batch insert on a saturated edge: weight %d, %+v", got, res)
	}
}

func TestWeightedInlineCapacityIsR(t *testing.T) {
	// §III-B: ⟨v,w⟩ pairs use two small slots each, so only R inline
	// records fit before the chain transformation.
	cfg := Config{R: 3}.Defaults()
	w := NewWeighted(cfg)
	u := uint64(9)
	for v := uint64(1); v <= uint64(cfg.R); v++ {
		w.InsertEdge(u, v)
	}
	if st := w.Stats(); st.Chains != 0 {
		t.Fatalf("chain too early at degree R: %+v", st)
	}
	w.InsertEdge(u, uint64(cfg.R)+1)
	if st := w.Stats(); st.Chains != 1 {
		t.Fatalf("chain not created at degree R+1: %+v", st)
	}
}

func TestWeightedWeightsSurviveTransformation(t *testing.T) {
	w := NewWeighted(Config{SCHTBase: 4})
	u := uint64(1)
	const deg = 500
	for v := uint64(1); v <= deg; v++ {
		w.Add(u, v, v) // weight = v
	}
	for v := uint64(1); v <= deg; v++ {
		if got, ok := w.Weight(u, v); !ok || got != v {
			t.Fatalf("weight(%d) = %d,%v; want %d,true", v, got, ok, v)
		}
	}
	total := uint64(0)
	w.ForEachSuccessor(u, func(_, weight uint64) bool {
		total += weight
		return true
	})
	if want := uint64(deg * (deg + 1) / 2); total != want {
		t.Fatalf("sum of weights %d, want %d", total, want)
	}
}

func TestWeightedQuickMultisetSemantics(t *testing.T) {
	f := func(seed uint64, ops []uint32) bool {
		w := NewWeighted(Config{Seed: seed | 1, LCHTBase: 4, SCHTBase: 4})
		model := map[[2]uint64]uint64{}
		for _, op := range ops {
			u := uint64(op % 7)
			v := uint64((op >> 8) % 31)
			key := [2]uint64{u, v}
			switch op % 3 {
			case 0:
				w.InsertEdge(u, v)
				model[key]++
			case 1:
				if w.DeleteEdge(u, v) != (model[key] > 0) {
					return false
				}
				if model[key] > 0 {
					model[key]--
					if model[key] == 0 {
						delete(model, key)
					}
				}
			default:
				got, ok := w.Weight(u, v)
				want, wok := model[key]
				if ok != wok || got != want {
					return false
				}
			}
		}
		return int(w.NumEdges()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedStreamDedup(t *testing.T) {
	// A CAIDA-like stream: many repeats of few pairs. Distinct-edge count
	// must equal the dedup count; weights must sum to the stream length.
	w := NewWeighted(Config{})
	rng := hashutil.NewRNG(13)
	const stream = 30000
	model := map[[2]uint64]uint64{}
	for i := 0; i < stream; i++ {
		u, v := rng.Uint64n(40), rng.Uint64n(40)
		w.InsertEdge(u, v)
		model[[2]uint64{u, v}]++
	}
	if int(w.NumEdges()) != len(model) {
		t.Fatalf("distinct edges %d, want %d", w.NumEdges(), len(model))
	}
	var sum uint64
	for k, want := range model {
		got, ok := w.Weight(k[0], k[1])
		if !ok || got != want {
			t.Fatalf("weight%v = %d,%v; want %d", k, got, ok, want)
		}
		sum += got
	}
	if sum != stream {
		t.Fatalf("weights sum %d, want %d", sum, stream)
	}
}

func TestMultiEdgeSemantics(t *testing.T) {
	m := NewMulti(Config{})
	m.InsertEdge(1, 2, 100)
	m.InsertEdge(1, 2, 101)
	m.InsertEdge(1, 3, 102)
	if m.NumEdges() != 3 || m.NumPairs() != 2 {
		t.Fatalf("edges %d pairs %d; want 3, 2", m.NumEdges(), m.NumPairs())
	}
	it := m.Edges(1, 2)
	if it.Len() != 2 {
		t.Fatalf("iterator len %d, want 2", it.Len())
	}
	seen := map[uint64]bool{}
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		seen[id] = true
	}
	if !seen[100] || !seen[101] {
		t.Fatalf("iterator missed ids: %v", seen)
	}
	if !m.DeleteEdge(1, 2, 100) {
		t.Fatal("delete id 100 failed")
	}
	if m.DeleteEdge(1, 2, 100) {
		t.Fatal("double delete succeeded")
	}
	if !m.DeleteEdge(1, 2, 101) {
		t.Fatal("delete id 101 failed")
	}
	if m.HasEdge(1, 2) {
		t.Fatal("pair survives empty edge list")
	}
	if m.NumEdges() != 1 || m.NumPairs() != 1 {
		t.Fatalf("edges %d pairs %d after deletes; want 1, 1", m.NumEdges(), m.NumPairs())
	}
}

func TestMultiEdgeHighFanIn(t *testing.T) {
	m := NewMulti(Config{})
	for id := uint64(0); id < 1000; id++ {
		m.InsertEdge(7, 8, id)
	}
	it := m.Edges(7, 8)
	if it.Len() != 1000 {
		t.Fatalf("iterator len %d, want 1000", it.Len())
	}
	if m.Edges(7, 9).Len() != 0 {
		t.Fatal("absent pair yields non-empty iterator")
	}
}

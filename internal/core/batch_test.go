package core

import (
	"fmt"
	"reflect"
	"testing"

	"cuckoograph/internal/hashutil"
)

// randomOps builds an op stream over a small node universe so inserts
// collide into chains, deletes trigger collapses and node removals, and
// duplicate edges (both duplicate inserts and re-inserts after delete)
// occur naturally. delPermille tunes the delete share.
func randomOps(rng *hashutil.RNG, n int, universe uint64, delPermille uint64) Batch {
	b := make(Batch, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Uint64n(universe)
		v := rng.Uint64n(universe)
		if rng.Uint64n(1000) < delPermille {
			b = b.Delete(u, v)
		} else {
			b = b.Insert(u, v)
		}
	}
	return b
}

// hotOps is randomOps with 90 % of the ops on 16 hot source nodes: the
// same u recurs every op or two, so consecutive ops of a batch keep
// landing on a cell the previous one just grew, shrank, transformed or
// collapsed.
func hotOps(rng *hashutil.RNG, n int, universe uint64, delPermille uint64) Batch {
	b := randomOps(rng, n, universe, delPermille)
	for i := range b {
		if rng.Uint64n(10) != 0 {
			b[i].U = universe + rng.Uint64n(16)
		}
	}
	return b
}

// churnOps is runs that create a node, fill it past the inline slots
// often enough to transform, delete every edge again — removing the node
// from the L-CHT or the L-DL — and half the time re-create it at once.
// Runs are short next to a batch, so most happen inside one; the node
// ids are spread over 8× the universe, so cells come and go and kick
// each other.
func churnOps(rng *hashutil.RNG, n int, universe uint64, _ uint64) Batch {
	b := make(Batch, 0, n)
	for len(b) < n {
		u := rng.Uint64n(8 * universe)
		deg := 1 + rng.Uint64n(12)
		for v := uint64(0); v < deg; v++ {
			b = b.Insert(u, v)
		}
		for v := uint64(0); v < deg; v++ {
			b = b.Delete(u, v)
		}
		if rng.Uint64n(2) == 0 {
			b = b.Insert(u, deg).Insert(u, 0)
		}
	}
	return b[:n]
}

// opStreams are the inputs of the batch ≡ one-by-one property. The
// churn stream runs with a kick budget of 2, which keeps cells in the
// L-DL for most of it.
var opStreams = []struct {
	name string
	gen  func(rng *hashutil.RNG, n int, universe, delPermille uint64) Batch
	cfg  Config
}{
	{"uniform", randomOps, smallCfg()},
	{"hot16", hotOps, smallCfg()},
	{"churn", churnOps, Config{LCHTBase: 2, SCHTBase: 2, MaxKicks: 2}},
}

// chopRandomly splits ops into batches of random size 1..maxChunk.
func chopRandomly(rng *hashutil.RNG, ops Batch, maxChunk uint64) []Batch {
	var out []Batch
	for len(ops) > 0 {
		n := int(rng.Uint64n(maxChunk) + 1)
		if n > len(ops) {
			n = len(ops)
		}
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	return out
}

// smallCfg forces growth, transformation and denylist traffic at test
// sizes.
func smallCfg() Config {
	return Config{LCHTBase: 4, SCHTBase: 4}
}

// TestBatchEquivalenceBasic is the batch/single equivalence property:
// applying an op stream through ApplyBatch in arbitrary chunks must
// leave a graph identical — full structural Stats, not just the edge
// set — to applying the same ops one by one, including interleaved
// deletes and duplicate edges.
func TestBatchEquivalenceBasic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, st := range opStreams {
				t.Run(st.name, func(t *testing.T) {
					rng := hashutil.NewRNG(seed)
					ops := st.gen(rng, 6000, 96, 350)

					single := NewGraph(st.cfg)
					var wantRes BatchResult
					for _, op := range ops {
						switch op.Kind {
						case OpInsert:
							if single.InsertEdge(op.U, op.V) {
								wantRes.Inserted++
							}
						case OpDelete:
							if single.DeleteEdge(op.U, op.V) {
								wantRes.Deleted++
							}
						}
					}

					batched := NewGraph(st.cfg)
					var gotRes BatchResult
					for _, chunk := range chopRandomly(rng, ops, 257) {
						r := batched.ApplyBatch(chunk)
						gotRes.Inserted += r.Inserted
						gotRes.Deleted += r.Deleted
						gotRes.Updated += r.Updated
					}

					if gotRes != wantRes {
						t.Fatalf("BatchResult = %+v, single-op path applied %+v", gotRes, wantRes)
					}
					if got, want := batched.Stats(), single.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("Stats diverge:\nbatched: %+v\nsingle:  %+v", got, want)
					}
					sameEdges(t, single, batched)
				})
			}
		})
	}
}

// sameEdges checks both graphs store exactly the same edge set.
func sameEdges(t *testing.T, a, b *Graph) {
	t.Helper()
	count := uint64(0)
	a.ForEachNode(func(u uint64) bool {
		a.ForEachSuccessor(u, func(v uint64) bool {
			count++
			if !b.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) present in single-op graph, absent in batched", u, v)
			}
			return true
		})
		return true
	})
	if count != b.NumEdges() {
		t.Fatalf("single-op graph has %d edges, batched has %d", count, b.NumEdges())
	}
}

// TestBatchEquivalenceWeighted is the same property for the weighted
// variant, where duplicate inserts increment weights and deletes
// decrement them — every weight must match, not just edge presence.
func TestBatchEquivalenceWeighted(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, st := range opStreams {
				t.Run(st.name, func(t *testing.T) {
					rng := hashutil.NewRNG(seed * 977)
					// A tiny universe piles duplicates onto the same pairs.
					ops := st.gen(rng, 6000, 48, 400)

					single := NewWeighted(st.cfg)
					for _, op := range ops {
						switch op.Kind {
						case OpInsert:
							single.InsertEdge(op.U, op.V)
						case OpDelete:
							single.DeleteEdge(op.U, op.V)
						}
					}

					batched := NewWeighted(st.cfg)
					for _, chunk := range chopRandomly(rng, ops, 129) {
						batched.ApplyBatch(chunk)
					}

					if got, want := batched.Stats(), single.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("Stats diverge:\nbatched: %+v\nsingle:  %+v", got, want)
					}
					single.ForEachNode(func(u uint64) bool {
						single.ForEachSuccessor(u, func(v, weight uint64) bool {
							got, ok := batched.Weight(u, v)
							if !ok || got != weight {
								t.Fatalf("weight(%d,%d) = %d,%v in batched graph, want %d", u, v, got, ok, weight)
							}
							return true
						})
						return true
					})
				})
			}
		})
	}
}

// TestBatchResultCounts pins the BatchResult accounting for both
// variants on a hand-built scenario.
func TestBatchResultCounts(t *testing.T) {
	g := NewGraph(Config{})
	res := g.ApplyBatch(Batch{}.
		Insert(1, 2). // new
		Insert(1, 2). // duplicate: no-op
		Insert(1, 3). // new
		Delete(1, 2). // removes
		Delete(9, 9)) // absent: no-op
	want := BatchResult{Inserted: 2, Deleted: 1}
	if res != want {
		t.Fatalf("basic BatchResult = %+v, want %+v", res, want)
	}
	if res.Applied() != 3 {
		t.Fatalf("Applied() = %d, want 3", res.Applied())
	}

	w := NewWeighted(Config{})
	wres := w.ApplyBatch(Batch{}.
		Insert(1, 2). // new, weight 1
		Insert(1, 2). // weight 2: updated
		Delete(1, 2). // weight 1: updated
		Delete(1, 2). // weight 0: deleted
		Delete(1, 2)) // absent: no-op
	wantW := BatchResult{Inserted: 1, Deleted: 1, Updated: 2}
	if wres != wantW {
		t.Fatalf("weighted BatchResult = %+v, want %+v", wres, wantW)
	}
}

// TestBatchOnAppliedOrder verifies ApplyBatchFunc reports exactly the
// state-changing ops in application order — the contract the WAL's
// batch records depend on.
func TestBatchOnAppliedOrder(t *testing.T) {
	g := NewGraph(Config{})
	var got Batch
	g.ApplyBatchFunc(Batch{}.
		Insert(1, 2).
		Insert(1, 2). // dup, not reported
		Insert(2, 3).
		Delete(7, 7). // absent, not reported
		Delete(1, 2),
		nil, func(op Op) { got = append(got, op) })
	want := Batch{}.Insert(1, 2).Insert(2, 3).Delete(1, 2)
	if len(got) != len(want) {
		t.Fatalf("onApplied saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("onApplied saw %v, want %v", got, want)
		}
	}
}

// TestBatchUnknownKindIgnored: decoders reject unknown kinds before the
// engine, but the engine itself must not corrupt state on one.
func TestBatchUnknownKindIgnored(t *testing.T) {
	g := NewGraph(Config{})
	res := g.ApplyBatch(Batch{InsertOp(1, 2), {Kind: 99, U: 3, V: 4}, InsertOp(5, 6)})
	if res.Inserted != 2 || g.NumEdges() != 2 || g.HasEdge(3, 4) {
		t.Fatalf("unknown kind leaked: res=%+v edges=%d", res, g.NumEdges())
	}
}

// BenchmarkApplyBatchHot times ApplyBatch per op on skewed streams: a
// share of the ops lands on 16 hot source nodes, the rest on 4096 cold
// ones, and each batch is applied and then undone, so the graph stays
// the size the set-up left it.
func BenchmarkApplyBatchHot(b *testing.B) {
	for _, c := range []struct {
		size   int
		hotPct uint64
	}{{512, 50}, {4096, 90}} {
		b.Run(fmt.Sprintf("batch=%d/hot=%d%%", c.size, c.hotPct), func(b *testing.B) {
			rng := hashutil.NewRNG(1)
			g := NewGraph(Config{})
			for i := 0; i < 1<<16; i++ {
				g.InsertEdge(rng.Uint64n(4096+16), rng.Uint64n(1<<20))
			}
			ins, del := make(Batch, c.size), make(Batch, c.size)
			for i := range ins {
				u := 16 + rng.Uint64n(4096)
				if rng.Uint64n(100) < c.hotPct {
					u = rng.Uint64n(16)
				}
				ins[i] = InsertOp(u, 1<<20+uint64(i))
				del[i] = DeleteOp(u, 1<<20+uint64(i))
			}
			b.ResetTimer()
			for done := 0; done < b.N; done += 2 * c.size {
				g.ApplyBatch(ins)
				g.ApplyBatch(del)
			}
		})
	}
}

package stores

import (
	"testing"

	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/hashutil"
)

// TestConformance drives every registered store against a map model with
// the same randomized operation stream: inserts (with duplicates),
// deletes (present and absent), membership queries and successor sets
// must all agree with the model.
func TestConformance(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s := f.New()
			rng := hashutil.NewRNG(1234)
			model := map[[2]uint64]bool{}
			const ops = 30000
			for i := 0; i < ops; i++ {
				u := rng.Uint64n(300)
				v := rng.Uint64n(300)
				key := [2]uint64{u, v}
				switch rng.Intn(5) {
				case 0, 1, 2:
					if got, want := s.InsertEdge(u, v), !model[key]; got != want {
						t.Fatalf("op %d: InsertEdge(%d,%d) = %v, want %v", i, u, v, got, want)
					}
					model[key] = true
				case 3:
					if got, want := s.DeleteEdge(u, v), model[key]; got != want {
						t.Fatalf("op %d: DeleteEdge(%d,%d) = %v, want %v", i, u, v, got, want)
					}
					delete(model, key)
				default:
					if got, want := s.HasEdge(u, v), model[key]; got != want {
						t.Fatalf("op %d: HasEdge(%d,%d) = %v, want %v", i, u, v, got, want)
					}
				}
			}
			if int(s.NumEdges()) != len(model) {
				t.Fatalf("NumEdges = %d, want %d", s.NumEdges(), len(model))
			}
			// Successor sets must match per node.
			perNode := map[uint64]map[uint64]bool{}
			for key := range model {
				if perNode[key[0]] == nil {
					perNode[key[0]] = map[uint64]bool{}
				}
				perNode[key[0]][key[1]] = true
			}
			for u := uint64(0); u < 300; u++ {
				got := map[uint64]bool{}
				s.ForEachSuccessor(u, func(v uint64) bool {
					if got[v] {
						t.Fatalf("store %s: duplicate successor %d of %d", f.Name, v, u)
					}
					got[v] = true
					return true
				})
				want := perNode[u]
				if len(got) != len(want) {
					t.Fatalf("node %d: %d successors, want %d", u, len(got), len(want))
				}
				for v := range want {
					if !got[v] {
						t.Fatalf("node %d: missing successor %d", u, v)
					}
				}
			}
			if s.MemoryUsage() == 0 {
				t.Fatal("MemoryUsage reported zero for a non-empty store")
			}
		})
	}
}

// TestConformanceSkewedDegrees exercises power-law-ish degrees: one hub
// with thousands of neighbours alongside many degree-1 nodes, the shape
// that motivates the paper (§I property ③).
func TestConformanceSkewedDegrees(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s := f.New()
			const hubDeg = 3000
			for v := uint64(1); v <= hubDeg; v++ {
				s.InsertEdge(0, v)
			}
			for u := uint64(1); u <= 500; u++ {
				s.InsertEdge(u, u+1)
			}
			if got := graphstore.Degree(s, 0); got != hubDeg {
				t.Fatalf("hub degree %d, want %d", got, hubDeg)
			}
			for v := uint64(1); v <= hubDeg; v += 97 {
				if !s.HasEdge(0, v) {
					t.Fatalf("hub edge %d missing", v)
				}
			}
			// Delete half the hub's edges and re-verify.
			for v := uint64(1); v <= hubDeg/2; v++ {
				if !s.DeleteEdge(0, v) {
					t.Fatalf("hub delete %d failed", v)
				}
			}
			if got := graphstore.Degree(s, 0); got != hubDeg/2 {
				t.Fatalf("hub degree after deletes %d, want %d", got, hubDeg/2)
			}
		})
	}
}

// TestForEachNodeCoverage checks node iteration on every store.
func TestForEachNodeCoverage(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s := f.New()
			want := map[uint64]bool{}
			for u := uint64(10); u < 40; u++ {
				s.InsertEdge(u, u*2)
				want[u] = true
			}
			got := map[uint64]bool{}
			s.ForEachNode(func(u uint64) bool {
				got[u] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("ForEachNode visited %d nodes, want %d", len(got), len(want))
			}
		})
	}
}

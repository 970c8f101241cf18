// Benchmarks mirroring every table and figure of the paper's evaluation
// (§V). Each BenchmarkFigN corresponds to one figure; sub-benchmarks
// name the parameter value, scheme or dataset exactly as the paper's
// plots do; Figure 17, the server over TCP, is `cgbench fig17` alone.
// Run with:
//
//	go test -bench=. -benchmem
//
// The scale is kept small so the full suite runs in minutes; use
// cmd/cgbench for larger, publication-style runs.
package cuckoograph_test

import (
	"fmt"
	"testing"

	"cuckoograph/internal/bench"
	"cuckoograph/internal/core"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/neolike"
	"cuckoograph/internal/stores"
)

const benchScale = 512 // dataset scale divisor for in-test benches

func benchStream(name string) []dataset.Edge {
	spec, ok := dataset.ByName(name)
	if !ok {
		panic("unknown dataset " + name)
	}
	return dataset.Generate(spec, benchScale, 42)
}

// insertAll loads a stream; the helper every figure bench shares.
func insertAll(s graphstore.Store, st []dataset.Edge) {
	for _, e := range st {
		s.InsertEdge(e.U, e.V)
	}
}

// BenchmarkFig2ParamD sweeps cells-per-bucket d (Figure 2).
func BenchmarkFig2ParamD(b *testing.B) {
	st := benchStream("CAIDA")
	for _, d := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("d=%d/insert", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insertAll(stores.NewCuckooGraphWith(core.Config{D: d}), st)
			}
			b.ReportMetric(float64(len(st)), "edges/op")
		})
	}
}

// BenchmarkFig3ParamG sweeps the expansion threshold G (Figure 3).
func BenchmarkFig3ParamG(b *testing.B) {
	st := benchStream("CAIDA")
	for _, g := range []float64{0.8, 0.85, 0.9, 0.95} {
		b.Run(fmt.Sprintf("G=%.2f/insert", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insertAll(stores.NewCuckooGraphWith(core.Config{G: g}), st)
			}
			b.ReportMetric(float64(len(st)), "edges/op")
		})
	}
}

// BenchmarkFig4ParamT sweeps the kick budget T (Figure 4).
func BenchmarkFig4ParamT(b *testing.B) {
	st := benchStream("CAIDA")
	for _, t := range []int{50, 150, 250, 350} {
		b.Run(fmt.Sprintf("T=%d/insert", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insertAll(stores.NewCuckooGraphWith(core.Config{MaxKicks: t}), st)
			}
			b.ReportMetric(float64(len(st)), "edges/op")
		})
	}
}

// BenchmarkFig5Ablation compares DL on/off (Figure 5).
func BenchmarkFig5Ablation(b *testing.B) {
	st := benchStream("CAIDA")
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"DL", false}, {"DL-free", true}} {
		b.Run(mode.name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insertAll(stores.NewCuckooGraphWith(core.Config{DisableDenylist: mode.disable}), st)
			}
		})
		b.Run(mode.name+"/query", func(b *testing.B) {
			s := stores.NewCuckooGraphWith(core.Config{DisableDenylist: mode.disable})
			insertAll(s, st)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := st[i%len(st)]
				s.HasEdge(e.U, e.V)
			}
		})
	}
}

// perSchemeDatasets is the dataset subset used by the per-figure scheme
// benches (the full seven run via cmd/cgbench; CAIDA and NotreDame keep
// `go test -bench` fast while covering weighted and unweighted shapes).
var perSchemeDatasets = []string{"CAIDA", "NotreDame"}

// BenchmarkFig6Insert is Figure 6: insertion throughput per scheme.
func BenchmarkFig6Insert(b *testing.B) {
	for _, ds := range perSchemeDatasets {
		st := benchStream(ds)
		for _, f := range stores.Evaluated() {
			b.Run(ds+"/"+f.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					insertAll(f.New(), st)
				}
				b.ReportMetric(float64(len(st)), "edges/op")
			})
		}
	}
}

// BenchmarkFig7Query is Figure 7: edge-query throughput per scheme.
func BenchmarkFig7Query(b *testing.B) {
	for _, ds := range perSchemeDatasets {
		st := benchStream(ds)
		for _, f := range stores.Evaluated() {
			s := f.New()
			insertAll(s, st)
			b.Run(ds+"/"+f.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := st[i%len(st)]
					s.HasEdge(e.U, e.V)
				}
			})
		}
	}
}

// BenchmarkFig8Delete is Figure 8: deletion throughput per scheme.
func BenchmarkFig8Delete(b *testing.B) {
	for _, ds := range perSchemeDatasets {
		st := benchStream(ds)
		dedup := dataset.Dedup(st)
		for _, f := range stores.Evaluated() {
			b.Run(ds+"/"+f.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := f.New()
					insertAll(s, st)
					b.StartTimer()
					for _, e := range dedup {
						s.DeleteEdge(e.U, e.V)
					}
				}
				b.ReportMetric(float64(len(dedup)), "edges/op")
			})
		}
	}
}

// BenchmarkFig9Memory is Figure 9: it reports final structural bytes per
// scheme as a benchmark metric (bytes/op) over deduped inserts.
func BenchmarkFig9Memory(b *testing.B) {
	for _, ds := range perSchemeDatasets {
		dedup := dataset.Dedup(benchStream(ds))
		for _, f := range stores.Evaluated() {
			b.Run(ds+"/"+f.Name, func(b *testing.B) {
				var mem uint64
				for i := 0; i < b.N; i++ {
					s := f.New()
					for _, e := range dedup {
						s.InsertEdge(e.U, e.V)
					}
					mem = s.MemoryUsage()
				}
				b.ReportMetric(float64(mem), "structBytes")
			})
		}
	}
}

// benchAnalytics runs one §V-E task per scheme on NotreDame.
func benchAnalytics(b *testing.B, task bench.AnalyticsTask) {
	st := benchStream("NotreDame")
	for _, f := range stores.Evaluated() {
		b.Run("NotreDame/"+f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.RunAnalytics(f, st, task, 128)
			}
		})
	}
}

// BenchmarkFig10BFS .. BenchmarkFig16LCC are Figures 10-16.
func BenchmarkFig10BFS(b *testing.B)  { benchAnalytics(b, bench.TaskBFS) }
func BenchmarkFig11SSSP(b *testing.B) { benchAnalytics(b, bench.TaskSSSP) }
func BenchmarkFig12TC(b *testing.B)   { benchAnalytics(b, bench.TaskTC) }
func BenchmarkFig13CC(b *testing.B)   { benchAnalytics(b, bench.TaskCC) }
func BenchmarkFig14PR(b *testing.B)   { benchAnalytics(b, bench.TaskPR) }
func BenchmarkFig15BC(b *testing.B)   { benchAnalytics(b, bench.TaskBC) }
func BenchmarkFig16LCC(b *testing.B)  { benchAnalytics(b, bench.TaskLCC) }

// BenchmarkFig18Neo is Figure 18: the Neo4j-like engine with and without
// the CuckooGraph edge index.
func BenchmarkFig18Neo(b *testing.B) {
	st := benchStream("CAIDA")
	dedup := dataset.Dedup(st)
	for _, mode := range []struct {
		name    string
		indexed bool
	}{{"Ours+Neo4j", true}, {"Neo4j", false}} {
		b.Run(mode.name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := neolike.New()
				if mode.indexed {
					db = neolike.WithIndex()
				}
				for _, e := range st {
					db.CreateRelationship(e.U, e.V, "E")
				}
			}
		})
		b.Run(mode.name+"/query", func(b *testing.B) {
			db := neolike.New()
			if mode.indexed {
				db = neolike.WithIndex()
			}
			for _, e := range st {
				db.CreateRelationship(e.U, e.V, "E")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := dedup[i%len(dedup)]
				db.Relationships(e.U, e.V)
			}
		})
	}
}

// BenchmarkTable3Amortized measures raw CuckooGraph single-edge insert
// cost (Table III's O(1) claim) against the map-based adjacency list.
func BenchmarkTable3Amortized(b *testing.B) {
	b.Run("CuckooGraph/insert", func(b *testing.B) {
		g := core.NewGraph(core.Config{})
		for i := 0; i < b.N; i++ {
			g.InsertEdge(uint64(i)%65536, uint64(i))
		}
	})
	b.Run("CuckooGraph/query", func(b *testing.B) {
		g := core.NewGraph(core.Config{})
		for i := 0; i < 1<<16; i++ {
			g.InsertEdge(uint64(i)%256, uint64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.HasEdge(uint64(i)%256, uint64(i)%(1<<16))
		}
	})
}

// Ablation benchmarks for the design choices beyond the paper's own
// parameter study: the number of large slots R (inline capacity vs chain
// pressure), the initial S-CHT length n (space vs transformation
// frequency), the weighted variant's overhead, and the snapshot codec.
package cuckoograph_test

import (
	"bytes"
	"fmt"
	"testing"

	"cuckoograph"
	"cuckoograph/internal/core"
	"cuckoograph/internal/stores"
)

// BenchmarkAblationR sweeps R: small R sends nodes to S-CHT chains
// earlier (more pointers), large R wastes inline slots on low-degree
// nodes (more memory).
func BenchmarkAblationR(b *testing.B) {
	st := benchStream("NotreDame")
	for _, r := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			var mem uint64
			for i := 0; i < b.N; i++ {
				s := stores.NewCuckooGraphWith(core.Config{R: r})
				insertAll(s, st)
				mem = s.MemoryUsage()
			}
			b.ReportMetric(float64(mem), "structBytes")
		})
	}
}

// BenchmarkAblationSCHTBase sweeps n, the 1st S-CHT length.
func BenchmarkAblationSCHTBase(b *testing.B) {
	st := benchStream("StackOverflow")
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var mem uint64
			for i := 0; i < b.N; i++ {
				s := stores.NewCuckooGraphWith(core.Config{SCHTBase: n})
				insertAll(s, st)
				mem = s.MemoryUsage()
			}
			b.ReportMetric(float64(mem), "structBytes")
		})
	}
}

// BenchmarkAblationWeighted compares the basic version deduplicating a
// stream against the weighted version counting it (§III-B's trade).
func BenchmarkAblationWeighted(b *testing.B) {
	st := benchStream("CAIDA") // heavy duplication
	b.Run("basic-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := cuckoograph.New()
			for _, e := range st {
				g.InsertEdge(e.U, e.V)
			}
		}
	})
	b.Run("weighted-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := cuckoograph.NewWeighted()
			for _, e := range st {
				g.InsertEdge(e.U, e.V)
			}
		}
	})
}

// BenchmarkSnapshotCodec measures Save/Load throughput.
func BenchmarkSnapshotCodec(b *testing.B) {
	g := cuckoograph.New()
	st := benchStream("NotreDame")
	for _, e := range st {
		g.InsertEdge(e.U, e.V)
	}
	var buf bytes.Buffer
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := g.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	g.Save(&buf)
	data := buf.Bytes()
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cuckoograph.Load(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}

// BenchmarkSafeGraph measures the RWMutex wrapper's overhead on the
// read path.
func BenchmarkSafeGraph(b *testing.B) {
	plain := cuckoograph.New()
	safe := cuckoograph.NewSafe()
	for i := uint64(0); i < 1<<15; i++ {
		plain.InsertEdge(i%256, i)
		safe.InsertEdge(i%256, i)
	}
	b.Run("plain/query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plain.HasEdge(uint64(i)%256, uint64(i)%(1<<15))
		}
	})
	b.Run("safe/query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			safe.HasEdge(uint64(i)%256, uint64(i)%(1<<15))
		}
	})
}

// BenchmarkSafeGraphAnalytics times the facade's two whole-graph jobs
// on 30 k nodes / 195 k edges: on a FrozenView whose CSR index is
// already compiled, and one-shot through SafeGraph, which pays for the
// snapshot, the index and the release on every call.
func BenchmarkSafeGraphAnalytics(b *testing.B) {
	const n = 30000
	g := cuckoograph.NewSafe()
	x := uint64(42)
	for u := uint64(0); u < n; u++ {
		for d := uint64(0); d < 2+u%10; d++ {
			x = x*6364136223846793005 + 1442695040888963407
			g.InsertEdge(u, (x>>33)%n)
		}
	}
	b.Logf("%d nodes, %d edges", g.NumNodes(), g.NumEdges())
	v := g.Snapshot()
	defer v.Release()
	v.BFS(0) // compiles and memoises the view's index
	b.Run("FrozenView/BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.BFS(0)
		}
	})
	b.Run("FrozenView/PageRank10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.PageRank(10)
		}
	})
	b.Run("SafeGraph/BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.BFS(0)
		}
	})
	b.Run("SafeGraph/PageRank10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.PageRank(10)
		}
	})
}

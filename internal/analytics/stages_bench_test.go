package analytics

import (
	"sort"
	"testing"

	"cuckoograph/internal/dataset"
	"cuckoograph/internal/sharded"
)

// jobGraph loads the shape the benchmark's analytics_snapshot workload
// runs on — NotreDame at scale 8, deduplicated, seed 7, two shards — and
// returns it with the four sources of highest out-degree (ties to the
// smaller id), the workload's BFS roots.
func jobGraph(tb testing.TB) (*sharded.Graph, []uint64) {
	spec, ok := dataset.ByName("NotreDame")
	if !ok {
		tb.Fatal("dataset: NotreDame spec missing")
	}
	g := sharded.New(sharded.Config{Shards: 2})
	deg := map[uint64]int{}
	for _, e := range dataset.Dedup(dataset.Generate(spec, 8, 7)) {
		g.InsertEdge(e.U, e.V)
		deg[e.U]++
	}
	roots := make([]uint64, 0, len(deg))
	for u := range deg {
		roots = append(roots, u)
	}
	sort.Slice(roots, func(i, j int) bool {
		if deg[roots[i]] != deg[roots[j]] {
			return deg[roots[i]] > deg[roots[j]]
		}
		return roots[i] < roots[j]
	})
	return g, roots[:4]
}

// BenchmarkJobStages times the stages of one analytics_snapshot job one
// by one: compiling an epoch (snapshot, View.CSR, release), PageRank(10),
// BFS from the four top-degree roots, and components, the last three on
// one compiled view. README § "Analytics: CSR-compiled frozen views"
// prints its table from
//
//	go test -run '^$' -bench JobStages -benchtime 100x -count 5 ./internal/analytics
func BenchmarkJobStages(b *testing.B) {
	g, roots := jobGraph(b)
	b.Run("CSR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := g.Snapshot()
			if v.CSR().NumEdges() != int(v.NumEdges()) {
				b.Fatal("compiled edge count differs from the view's")
			}
			v.Release()
		}
	})
	v := g.Snapshot()
	defer v.Release()
	v.CSR()
	b.Run("PageRank10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(PageRank(v, 10)) == 0 {
				b.Fatal("empty PageRank")
			}
		}
	})
	b.Run("BFSx4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range roots {
				if len(BFS(v, r)) < 2 {
					b.Fatal("BFS did not leave its root")
				}
			}
		}
	})
	b.Run("Components", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, n := ConnectedComponents(v); n == 0 {
				b.Fatal("no components")
			}
		}
	})
}

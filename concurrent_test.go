package cuckoograph_test

import (
	"bytes"
	"sync"
	"testing"

	"cuckoograph"
	"cuckoograph/internal/analytics"
	"cuckoograph/internal/core"
)

func TestSafeGraphConcurrentReadersAndWriters(t *testing.T) {
	g := cuckoograph.NewSafe()
	const writers, readers, perWriter = 4, 4, 2000

	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(base uint64) {
			defer writerWG.Done()
			for i := uint64(0); i < perWriter; i++ {
				g.InsertEdge(base*perWriter+i, i)
			}
		}(uint64(w))
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed uint64) {
			defer readerWG.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.HasEdge(seed*perWriter+i%perWriter, i%perWriter)
				g.Degree(seed * perWriter)
				_ = g.NumEdges()
			}
		}(uint64(r))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if g.NumEdges() != writers*perWriter {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := uint64(0); i < perWriter; i += 97 {
			if !g.HasEdge(uint64(w)*perWriter+i, i) {
				t.Fatalf("edge from writer %d missing", w)
			}
		}
	}
}

func TestSafeGraphTraversalAndStats(t *testing.T) {
	g := cuckoograph.NewSafeWithOptions(cuckoograph.Options{ShardCount: 4})
	if g.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", g.Shards())
	}
	for i := uint64(0); i < 500; i++ {
		g.InsertEdge(i%25, i)
	}
	nodes := 0
	g.ForEachNode(func(u cuckoograph.NodeID) bool {
		nodes++
		return true
	})
	if nodes != 25 {
		t.Fatalf("ForEachNode visited %d, want 25", nodes)
	}
	succ := 0
	g.ForEachSuccessor(3, func(v cuckoograph.NodeID) bool {
		succ++
		return true
	})
	if succ != g.Degree(3) || succ == 0 {
		t.Fatalf("ForEachSuccessor saw %d, Degree = %d", succ, g.Degree(3))
	}
	// Callbacks may re-enter the graph, including mutating it.
	g.ForEachSuccessor(3, func(v cuckoograph.NodeID) bool {
		g.InsertEdge(v, 3)
		return true
	})
	if !g.HasEdge(28, 3) {
		t.Fatal("mutation inside traversal callback lost")
	}
	st := g.Stats()
	if st.Edges != g.NumEdges() || st.Nodes != g.NumNodes() {
		t.Fatalf("stats %d/%d disagree with counters %d/%d",
			st.Edges, st.Nodes, g.NumEdges(), g.NumNodes())
	}
}

// TestSafeGraphAnalyticsMatchStoreKernels: SafeGraph.BFS and PageRank
// run on a frozen view's CSR index; on a graph nobody is writing they
// must agree with the Store-interface kernels run over a plain copy of
// the same edges.
func TestSafeGraphAnalyticsMatchStoreKernels(t *testing.T) {
	g := cuckoograph.NewSafeWithOptions(cuckoograph.Options{ShardCount: 4})
	for i := uint64(0); i < 300; i++ {
		g.InsertEdge(i, (i+1)%300)
		g.InsertEdge(i, (i*7+3)%300)
	}
	for i := uint64(0); i < 40; i++ { // an island BFS(0) never reaches
		g.InsertEdge(1000+i, 1000+(i+1)%40)
	}
	plain := core.NewGraph(core.Config{})
	g.ForEachNode(func(u cuckoograph.NodeID) bool {
		for _, v := range g.Successors(u) {
			plain.InsertEdge(u, v)
		}
		return true
	})

	got, want := g.BFS(0), analytics.BFS(plain, 0)
	if len(got) != 300 || len(got) != len(want) || got[0] != 0 {
		t.Fatalf("BFS visited %d nodes from %v, Store path %d, want 300 from 0", len(got), got[:1], len(want))
	}
	seen := make(map[uint64]bool, len(got))
	for _, u := range got {
		seen[u] = true
	}
	for _, u := range want {
		if !seen[u] {
			t.Fatalf("BFS: node %d reached on the Store path only", u)
		}
	}

	rank, wantRank := g.PageRank(20), analytics.PageRank(plain, 20)
	if len(rank) != 340 || len(rank) != len(wantRank) {
		t.Fatalf("PageRank ranked %d nodes, Store path %d, want 340", len(rank), len(wantRank))
	}
	sum := 0.0
	for u, r := range rank {
		sum += r
		if d := r - wantRank[u]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("PageRank[%d] = %g, Store path %g", u, r, wantRank[u])
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("PageRank mass = %g, want ≈ 1", sum)
	}
}

func TestLoadSafeAcrossShardCounts(t *testing.T) {
	// Snapshots round-trip between 1-shard and P-shard graphs, and
	// between single-writer Graph and SafeGraph.
	src := cuckoograph.NewSafeWithOptions(cuckoograph.Options{ShardCount: 1})
	for i := uint64(0); i < 2000; i++ {
		src.InsertEdge(i%100, i)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wide, err := cuckoograph.LoadSafe(bytes.NewReader(buf.Bytes()), cuckoograph.Options{ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumEdges() != src.NumEdges() || wide.NumNodes() != src.NumNodes() {
		t.Fatalf("1→8 shards: %d/%d, want %d/%d",
			wide.NumEdges(), wide.NumNodes(), src.NumEdges(), src.NumNodes())
	}
	buf.Reset()
	if err := wide.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A sharded snapshot loads into the single-writer Graph too.
	plain, err := cuckoograph.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumEdges() != src.NumEdges() {
		t.Fatalf("sharded snapshot into Graph: %d edges, want %d", plain.NumEdges(), src.NumEdges())
	}
	for i := uint64(0); i < 2000; i += 53 {
		if !plain.HasEdge(i%100, i) {
			t.Fatalf("edge (%d,%d) lost in round trip", i%100, i)
		}
	}
}

func TestSafeGraphDeleteAndSave(t *testing.T) {
	g := cuckoograph.NewSafe()
	g.InsertEdge(1, 2)
	g.InsertEdge(3, 4)
	if !g.DeleteEdge(1, 2) || g.DeleteEdge(1, 2) {
		t.Fatal("delete semantics wrong")
	}
	if g.NumNodes() != 1 || len(g.Successors(3)) != 1 {
		t.Fatal("counts wrong")
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := cuckoograph.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasEdge(3, 4) || loaded.HasEdge(1, 2) {
		t.Fatal("snapshot content wrong")
	}
	_ = g.MemoryUsage()
}

func TestPublicSaveLoad(t *testing.T) {
	g := cuckoograph.New()
	for i := uint64(0); i < 1000; i++ {
		g.InsertEdge(i%50, i)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := cuckoograph.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d, want %d", g2.NumEdges(), g.NumEdges())
	}

	w := cuckoograph.NewWeighted()
	w.Add(1, 2, 9)
	buf.Reset()
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := cuckoograph.LoadWeighted(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := w2.Weight(1, 2); got != 9 {
		t.Fatalf("weight = %d, want 9", got)
	}
}

package csr

import (
	"runtime/debug"
	"sync"
	"testing"
)

// mockSource is a deterministic in-memory Source for builder tests,
// partitioned by u%shards (one shard when shards is 0).
type mockSource struct {
	nodes  []uint64
	succ   map[uint64][]uint64
	shards int
}

func (m *mockSource) NumEdges() (n uint64) {
	for _, s := range m.succ {
		n += uint64(len(s))
	}
	return n
}

func (m *mockSource) ShardCount() int { return max(m.shards, 1) }

func (m *mockSource) ScanShard(si int, sc *ShardScan) {
	sc.Nodes, sc.Counts, sc.Succs = sc.Nodes[:0], sc.Counts[:0], sc.Succs[:0]
	for _, u := range m.nodes {
		if int(u)%m.ShardCount() == si {
			sc.Nodes = append(sc.Nodes, u)
			sc.Counts = append(sc.Counts, int32(len(m.succ[u])))
			sc.Succs = append(sc.Succs, m.succ[u]...)
		}
	}
}

func testGraph() *mockSource {
	return &mockSource{
		nodes: []uint64{10, 20, 30, 40},
		succ: map[uint64][]uint64{
			10: {20, 30, 99}, // 99 is destination-only
			20: {10, 20},     // self-loop
			30: {40},
			40: {10, 77, 88}, // more destination-only nodes
		},
	}
}

func checkIndex(t *testing.T, x *Index, src *mockSource) {
	t.Helper()
	if x.NumSources() != len(src.nodes) {
		t.Fatalf("NumSources = %d, want %d", x.NumSources(), len(src.nodes))
	}
	wantNodes := map[uint64]bool{}
	for _, u := range src.nodes {
		wantNodes[u] = true
		for _, v := range src.succ[u] {
			wantNodes[v] = true
		}
	}
	if x.NumNodes() != len(wantNodes) {
		t.Fatalf("NumNodes = %d, want %d", x.NumNodes(), len(wantNodes))
	}
	if x.NumEdges() != int(src.NumEdges()) {
		t.Fatalf("NumEdges = %d, want %d", x.NumEdges(), src.NumEdges())
	}
	// Round-trip dictionary and successor order per node.
	for _, u := range src.nodes {
		d, ok := x.DenseOf(u)
		if !ok {
			t.Fatalf("DenseOf(%d) missing", u)
		}
		if x.IDOf(d) != u {
			t.Fatalf("IDOf(DenseOf(%d)) = %d", u, x.IDOf(d))
		}
		want := src.succ[u]
		got := x.Succ(d)
		if len(got) != len(want) || x.Degree(d) != len(want) {
			t.Fatalf("node %d: %d successors, want %d", u, len(got), len(want))
		}
		for i, dv := range got {
			if x.IDOf(dv) != want[i] {
				t.Fatalf("node %d succ %d = %d, want %d (order must match source)",
					u, i, x.IDOf(dv), want[i])
			}
		}
	}
	// Destination-only nodes sit past the sources with empty ranges.
	for d := int32(x.NumSources()); d < int32(x.NumNodes()); d++ {
		if x.Degree(d) != 0 {
			t.Fatalf("dest-only dense %d has degree %d", d, x.Degree(d))
		}
		if len(src.succ[x.IDOf(d)]) != 0 {
			t.Fatalf("node %d with out-edges landed past the sources", x.IDOf(d))
		}
	}
}

func TestBuildSerial(t *testing.T) {
	src := testGraph()
	checkIndex(t, Build(src), src)
}

func TestBuildSharded(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		src := testGraph()
		src.shards = shards
		checkIndex(t, Build(src), src)
	}
}

func TestBuildEmpty(t *testing.T) {
	x := Build(&mockSource{})
	if x.NumNodes() != 0 || x.NumEdges() != 0 || x.NumSources() != 0 {
		t.Fatalf("empty build: nodes=%d edges=%d srcs=%d", x.NumNodes(), x.NumEdges(), x.NumSources())
	}
}

func TestMemoryBytes(t *testing.T) {
	x := Build(testGraph())
	want := uint64(x.NumNodes())*8 + uint64(len(x.dense.keys))*12 +
		uint64(x.NumNodes()+1+x.NumEdges())*4
	if got := x.MemoryBytes(); got == 0 || got != want {
		t.Fatalf("MemoryBytes = %d, want ids + dictionary + offsets + edges = %d", got, want)
	}
}

// ring returns an n-node source in which node i points at the next
// three: every destination is a source, as on most of a web graph.
func ring(n, shards int) *mockSource {
	m := &mockSource{succ: make(map[uint64][]uint64, n), shards: shards}
	for i := 0; i < n; i++ {
		u := uint64(i)
		m.nodes = append(m.nodes, u)
		for k := 1; k <= 3; k++ {
			m.succ[u] = append(m.succ[u], uint64((i+k)%n))
		}
	}
	return m
}

// poolKeeps reports whether a sync.Pool hands back what it was just
// given. Under the race detector it drops one Put in four at random, and
// an allocation count of pooled code then says nothing.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestBuildAllocsIndependentOfNodeCount pins what the pooled scan
// buffers and the exact-size index arrays buy: once the pool is warm a
// build allocates the index's own arrays and a fixed handful of headers,
// the same number for 200 nodes as for 20 000. The collector is off for
// the duration so that it cannot empty the pool between runs.
func TestBuildAllocsIndependentOfNodeCount(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool is dropping Puts (race detector): nothing to pin")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		src := ring(n, 2)
		return testing.AllocsPerRun(10, func() {
			if x := Build(src); x.NumNodes() != n || x.NumEdges() != 3*n {
				t.Fatalf("ring(%d) compiled to %d nodes, %d edges", n, x.NumNodes(), x.NumEdges())
			}
		})
	}
	big := allocs(20_000) // first, so the pooled buffers are already large enough for the small one
	small := allocs(200)
	if small != big || big > 12 {
		t.Fatalf("Build allocates %v times for 200 nodes, %v for 20 000; want the same small number", small, big)
	}
}

// TestBuildDestinationHeavy compiles a source whose destinations
// outnumber its sources 64 to 1, so the dictionary and the id array
// both outgrow their source-count hint, and checks that MemoryBytes
// accounts the dictionary at the capacity it ended up with.
func TestBuildDestinationHeavy(t *testing.T) {
	src := &mockSource{succ: map[uint64][]uint64{}, shards: 2}
	for hub := uint64(0); hub < 8; hub++ {
		src.nodes = append(src.nodes, hub)
		for leaf := uint64(0); leaf < 64; leaf++ {
			src.succ[hub] = append(src.succ[hub], 1000+hub*64+leaf)
		}
	}
	x := Build(src)
	nodes, edges := uint64(8+8*64), uint64(8*64)
	if want := nodes*8 + 1024*12 + (nodes+1)*4 + edges*4; x.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d (520 nodes in a 1024-slot dictionary)", x.MemoryBytes(), want)
	}
	if y := Build(src); y.MemoryBytes() != x.MemoryBytes() {
		t.Fatalf("two builds of one source report %d and %d bytes", x.MemoryBytes(), y.MemoryBytes())
	}
	checkIndex(t, x, src)
}

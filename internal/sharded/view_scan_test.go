package sharded

import (
	"math/rand"
	"sync"
	"testing"

	"cuckoograph/internal/csr"
)

// checkCompiled is checkCSRAgainst plus the two totals the view itself
// carries: every build must account for exactly the epoch's nodes and
// edges, whatever the writers did between two chunks of its scan.
func checkCompiled(t *testing.T, v *View, want map[[2]uint64]bool) {
	t.Helper()
	idx := v.CSR()
	if idx.NumSources() != int(v.NumNodes()) {
		t.Fatalf("CSR NumSources = %d, view NumNodes = %d", idx.NumSources(), v.NumNodes())
	}
	if idx.NumEdges() != int(v.NumEdges()) {
		t.Fatalf("CSR NumEdges = %d, view NumEdges = %d", idx.NumEdges(), v.NumEdges())
	}
	checkCSRAgainst(t, v, want)
}

// TestViewScanShardChunks drives ScanShard across chunk boundaries with
// every kind of node: untouched ones read from the live shard, and, on
// both sides of a boundary, nodes changed since the epoch and nodes
// deleted since the epoch, read from the overlay. Two shards of ~2 000
// nodes each make four chunks a shard.
func TestViewScanShardChunks(t *testing.T) {
	g := New(Config{Shards: 2})
	const nodes = 4000
	rng := rand.New(rand.NewSource(5))
	for u := uint64(0); u < nodes; u++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			g.InsertEdge(u, uint64(rng.Intn(nodes)))
		}
	}
	v := g.Snapshot()
	defer v.Release()
	want := viewEdgeSet(v)

	// After the epoch: a third of the nodes lose every edge, a third gain
	// one, and new nodes appear that the view must not see.
	changed, deleted := map[uint64]bool{}, map[uint64]bool{}
	for u := uint64(0); u < nodes; u++ {
		switch u % 3 {
		case 0:
			for _, w := range g.Successors(u) {
				g.DeleteEdge(u, w)
			}
			deleted[u] = true
		case 1:
			g.InsertEdge(u, nodes+u)
			changed[u] = true
		}
	}
	g.InsertEdge(3*nodes, 1)

	for si := 0; si < g.Shards(); si++ {
		var sc csr.ShardScan
		v.ScanShard(si, &sc)
		if len(sc.Nodes) <= 3*scanChunk {
			t.Fatalf("shard %d has %d nodes: too few for four chunks", si, len(sc.Nodes))
		}
		// Untouched nodes come first, overlaid ones behind them: some
		// boundary must have nodes changed since the epoch and nodes
		// deleted since the epoch in the chunks on both of its sides, and
		// some chunk must still read the live shard.
		kinds := func(chunk []uint64) (live, chg, del int) {
			for _, u := range chunk {
				switch {
				case deleted[u]:
					del++
				case changed[u]:
					chg++
				default:
					live++
				}
			}
			return
		}
		straddled, readLive := false, false
		for b := scanChunk; b < len(sc.Nodes); b += scanChunk {
			live, lc, ld := kinds(sc.Nodes[b-scanChunk : b])
			_, rc, rd := kinds(sc.Nodes[b:min(b+scanChunk, len(sc.Nodes))])
			straddled = straddled || lc > 0 && ld > 0 && rc > 0 && rd > 0
			readLive = readLive || live > 0
		}
		if !straddled || !readLive {
			t.Fatalf("shard %d: overlay on both sides of a boundary %v, a chunk of live nodes %v", si, straddled, readLive)
		}
		// The scan itself: counts delimit the successor runs, and each
		// run is the node's frozen adjacency in view order.
		off := 0
		for i, u := range sc.Nodes {
			succ := v.Successors(u)
			if int(sc.Counts[i]) != len(succ) {
				t.Fatalf("node %d: scanned %d successors, view has %d", u, sc.Counts[i], len(succ))
			}
			for j, w := range succ {
				if sc.Succs[off+j] != w {
					t.Fatalf("node %d: scanned successor %d = %d, view %d", u, j, sc.Succs[off+j], w)
				}
			}
			off += len(succ)
		}
		if off != len(sc.Succs) || len(sc.Counts) != len(sc.Nodes) {
			t.Fatalf("shard %d: %d nodes, %d counts, %d successors scanned, %d accounted", si, len(sc.Nodes), len(sc.Counts), len(sc.Succs), off)
		}
	}
	checkCompiled(t, v, want)
}

// TestViewCSRChunkedBuildUnderWriters is TestViewCSRBuildUnderConcurrentWriters
// at a size where every shard's scan spans several lock holds (> 512 nodes a
// shard), so writers land between two chunks of one build; run under -race in
// CI. Every build, of the first view and of views taken mid-churn, must be an
// exact compilation of its own epoch.
func TestViewCSRChunkedBuildUnderWriters(t *testing.T) {
	g := New(Config{Shards: 2})
	const ids = 3000
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4*ids; i++ {
		g.InsertEdge(uint64(rng.Intn(ids)), uint64(rng.Intn(ids)))
	}
	v := g.Snapshot()
	defer v.Release()
	want := viewEdgeSet(v)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := uint64(r.Intn(ids))
				switch r.Intn(4) {
				case 0: // the node leaves the live graph; the view keeps it
					for _, x := range g.Successors(u) {
						g.DeleteEdge(u, x)
					}
				case 1:
					g.DeleteEdge(u, uint64(r.Intn(ids)))
				default:
					g.InsertEdge(u, uint64(r.Intn(2*ids)))
				}
			}
		}(int64(w) + 200)
	}
	checkCompiled(t, v, want)
	for i := 0; i < 3; i++ {
		vi := g.Snapshot()
		// The edge set is read through the same frozen view, before and
		// after its compile, while the writers keep going.
		checkCompiled(t, vi, viewEdgeSet(vi))
		vi.Release()
	}
	close(stop)
	writers.Wait()
}

// TestViewStatsCountsCompiledEpochs: a build is counted once per epoch,
// its bytes while the view lives, and nothing after the last Release.
func TestViewStatsCountsCompiledEpochs(t *testing.T) {
	g := New(Config{Shards: 2})
	for u := uint64(0); u < 100; u++ {
		g.InsertEdge(u, u+1)
	}
	if vs := g.ViewStats(); vs.CSRBuilds != 0 || vs.CSRBuildNanos != 0 || vs.CSRBytes != 0 {
		t.Fatalf("fresh graph: %+v", vs)
	}
	v1, v2 := g.Snapshot(), g.Snapshot()
	b1 := v1.CSR().MemoryBytes()
	v1.CSR() // memoized: not a second build
	if vs := g.ViewStats(); vs.CSRBuilds != 1 || vs.CSRBuildNanos == 0 || vs.CSRBytes != b1 {
		t.Fatalf("after one build of %d bytes: %+v", b1, vs)
	}
	v1.Retain()
	v1.Release() // a holder remains: still compiled
	b2 := v2.CSR().MemoryBytes()
	if vs := g.ViewStats(); vs.CSRBuilds != 2 || vs.CSRBytes != b1+b2 {
		t.Fatalf("after two builds of %d and %d bytes: %+v", b1, b2, vs)
	}
	v1.Release()
	if vs := g.ViewStats(); vs.CSRBytes != b2 {
		t.Fatalf("after releasing the first view: CSRBytes = %d, want %d", vs.CSRBytes, b2)
	}
	v2.Release()
	v3 := g.Snapshot()
	v3.Release() // never compiled: nothing to give back
	if vs := g.ViewStats(); vs.CSRBuilds != 2 || vs.CSRBytes != 0 {
		t.Fatalf("after the last release: %+v", vs)
	}
}

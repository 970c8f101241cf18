package cuckoograph

import (
	"testing"

	"cuckoograph/internal/core"
)

func TestSafeGraphSnapshotTimeTravel(t *testing.T) {
	g := NewSafe()
	// Ring 0→1→…→99→0 at the first epoch.
	const n = 100
	for i := uint64(0); i < n; i++ {
		g.InsertEdge(i, (i+1)%n)
	}
	v1 := g.Snapshot()
	defer v1.Release()

	// Cut the ring and splice in a detour; take a second view.
	g.DeleteEdge(0, 1)
	g.InsertEdge(0, 500)
	g.InsertEdge(500, 1)
	v2 := g.Snapshot()
	defer v2.Release()
	if v2.Epoch() <= v1.Epoch() {
		t.Fatalf("epochs not monotonic: %d then %d", v1.Epoch(), v2.Epoch())
	}

	// Shred the live graph entirely; both views must hold their epochs.
	for i := uint64(0); i < n; i++ {
		g.DeleteEdge(i, (i+1)%n)
	}
	if got := len(v1.BFS(0)); got != n {
		t.Fatalf("epoch-%d BFS reached %d nodes, want the full %d-ring", v1.Epoch(), got, n)
	}
	if got := len(v2.BFS(0)); got != n+1 {
		t.Fatalf("epoch-%d BFS reached %d nodes, want %d (ring + detour)", v2.Epoch(), got, n+1)
	}
	if !v1.HasEdge(0, 1) || v2.HasEdge(0, 1) {
		t.Fatalf("views disagree with their epochs on edge ⟨0,1⟩")
	}
	if v1.NumEdges() != n || v2.NumEdges() != n+1 {
		t.Fatalf("view edge counts %d/%d, want %d/%d", v1.NumEdges(), v2.NumEdges(), n, n+1)
	}
	if deg := len(v2.Successors(0)); deg != 1 {
		t.Fatalf("epoch-%d degree(0) = %d, want 1", v2.Epoch(), deg)
	}
	rank := v1.PageRank(10)
	if len(rank) != n {
		t.Fatalf("PageRank on frozen ring ranked %d nodes, want %d", len(rank), n)
	}
	// Only the detour survives on the live graph; the views archive the
	// ring epochs.
	if g.NumEdges() != 2 {
		t.Fatalf("live graph has %d edges, want just the detour pair", g.NumEdges())
	}
}

// TestSafeGraphParallelAnalytics runs SafeGraph.BFS and PageRank in
// parallel with a writer and checks that each result is of one epoch.
// The writer toggles pairs with one ApplyBatch per toggle: pair i is the
// leaves x and y, hung off opposite ends of a backbone path 0→1→…→n-1
// and pointing back at node 0 — four edges with four different source
// nodes, so nearly every batch spans shards. A BFS from 0 reaches a leaf
// exactly when its pair is in, and PageRank (which ranks source nodes)
// ranks it exactly then; reading the backbone takes long enough that a
// traversal of the live graph would meet x before a toggle and y after.
func TestSafeGraphParallelAnalytics(t *testing.T) {
	const n, pairs, leaf0 = 256, 32, 1 << 20
	g := NewSafeWithOptions(Options{ShardCount: 4})
	for i := uint64(0); i+1 < n; i++ {
		g.InsertEdge(i, i+1)
	}
	pair := func(i uint64, kind core.OpKind) core.Batch {
		x, y := uint64(leaf0+2*i), uint64(leaf0+2*i+1)
		return core.Batch{
			{Kind: kind, U: i, V: x}, {Kind: kind, U: x, V: 0},
			{Kind: kind, U: n - 1 - i, V: y}, {Kind: kind, U: y, V: 0},
		}
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for pass := 0; ; pass++ {
			kind := core.OpInsert
			if pass%2 == 1 {
				kind = core.OpDelete
			}
			for i := uint64(0); i < pairs; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.s.ApplyBatch(pair(i, kind))
			}
		}
	}()
	defer func() { close(stop); <-done }()

	whole := func(job string, in func(u uint64) bool) {
		t.Helper()
		for i := uint64(0); i < pairs; i++ {
			if x, y := uint64(leaf0+2*i), uint64(leaf0+2*i+1); in(x) != in(y) {
				t.Fatalf("%s saw half of pair %d: x in=%v, y in=%v", job, i, in(x), in(y))
			}
		}
	}
	for round := 0; round < 60; round++ {
		seen := map[uint64]bool{}
		for _, u := range g.BFS(0) {
			seen[u] = true
		}
		whole("BFS", func(u uint64) bool { return seen[u] })
		if round%4 == 0 {
			rank := g.PageRank(3)
			whole("PageRank", func(u uint64) bool { _, ok := rank[u]; return ok })
		}
	}
}

package analytics

import (
	"math/rand"
	"testing"

	"cuckoograph/internal/csr"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
)

// Reference kernels: the textbook loop nest PageRank, the test-then-branch
// BFS and a components walk on freshly made arrays. The edge-centric
// PageRank, the branch-free BFS and the pooled components walk must
// return exactly what these return: ranks compared with ==, not within
// a tolerance, traversal orders and component labels element by element.

// pageRankRefInto is the node-centric loop: one inner loop per source.
// rank and next must be zeroed and hold idx.NumNodes() entries.
func pageRankRefInto(idx *csr.Index, iters int, rank, next []float64) {
	srcs := int32(idx.NumSources())
	const damping = 0.85
	n := float64(srcs)
	for u := int32(0); u < srcs; u++ {
		rank[u] = 1 / n
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		leak := 0.0
		for u := int32(0); u < srcs; u++ {
			deg := idx.Degree(u)
			if deg == 0 { // cannot happen for a source; kept for parity
				leak += rank[u]
				continue
			}
			share := rank[u] / float64(deg)
			for _, v := range idx.Succ(u) {
				next[v] += share
			}
		}
		for u := int32(0); u < srcs; u++ {
			rank[u] = (1-damping)/n + damping*(next[u]+leak/n)
		}
	}
}

// bitset is the references' visited/on-stack set over dense ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// bfsRefInto is the test-then-branch loop over a visited bitset.
func bfsRefInto(idx *csr.Index, root int32, visited bitset, queue []int32) []int32 {
	visited.set(root)
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		for _, v := range idx.Succ(queue[head]) {
			if !visited.has(v) {
				visited.set(v)
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// ccRef is ccFlat with freshly made arrays, an on-stack bitset and
// stacks that start nil.
func ccRef(idx *csr.Index) (map[uint64]int, int) {
	n := idx.NumNodes()
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	onStack := newBitset(n)
	var stack []int32
	var call []ccFrame
	next, comps := int32(0), 0
	for root := int32(0); root < int32(idx.NumSources()); root++ {
		if index[root] >= 0 {
			continue
		}
		push := func(u int32) {
			index[u], low[u] = next, next
			next++
			stack = append(stack, u)
			onStack.set(u)
			call = append(call, ccFrame{node: u})
		}
		push(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			succ := idx.Succ(f.node)
			advanced := false
			for f.i < int32(len(succ)) {
				v := succ[f.i]
				f.i++
				if index[v] < 0 {
					push(v)
					advanced = true
					break
				}
				if onStack.has(v) && index[v] < low[f.node] {
					low[f.node] = index[v]
				}
			}
			if advanced {
				continue
			}
			if low[f.node] == index[f.node] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[uint32(w)>>6] &^= 1 << (uint32(w) & 63)
					comp[w] = int32(comps)
					if w == f.node {
						break
					}
				}
				comps++
			}
			done := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if low[done] < low[parent.node] {
					low[parent.node] = low[done]
				}
			}
		}
	}
	out := make(map[uint64]int, n)
	for i := int32(0); i < int32(n); i++ {
		if comp[i] >= 0 {
			out[idx.IDOf(i)] = int(comp[i])
		}
	}
	return out, comps
}

// checkAgainstReferences compares the three rewritten kernels with their
// references on one compiled view.
func checkAgainstReferences(t *testing.T, v *sharded.View, roots []uint64) {
	t.Helper()
	idx := v.CSR()
	n, srcs := idx.NumNodes(), idx.NumSources()

	got := pageRankFlat(idx, 15)
	if len(got) != srcs {
		t.Fatalf("PageRank: %d ranks for %d sources", len(got), srcs)
	}
	if srcs > 0 {
		rank, next := make([]float64, n), make([]float64, n)
		pageRankRefInto(idx, 15, rank, next)
		for u := 0; u < srcs; u++ {
			if g, ok := got[idx.IDOf(int32(u))]; !ok || g != rank[u] {
				t.Fatalf("PageRank: node %d = %v (present %v), reference %v", idx.IDOf(int32(u)), g, ok, rank[u])
			}
		}
	}

	for _, root := range roots {
		order := bfsFlat(idx, root)
		r, ok := idx.DenseOf(root)
		if !ok {
			if len(order) != 1 || order[0] != root {
				t.Fatalf("BFS(%d) of an absent root = %v", root, order)
			}
			continue
		}
		want := bfsRefInto(idx, r, newBitset(n), nil)
		if len(order) != len(want) {
			t.Fatalf("BFS(%d): visited %d nodes, reference %d", root, len(order), len(want))
		}
		for i, d := range want {
			if order[i] != idx.IDOf(d) {
				t.Fatalf("BFS(%d): order diverges at %d: %d, reference %d", root, i, order[i], idx.IDOf(d))
			}
		}
	}

	comp, comps := ccFlat(idx)
	wantComp, wantComps := ccRef(idx)
	if comps != wantComps || len(comp) != len(wantComp) {
		t.Fatalf("ConnectedComponents: %d components over %d nodes, reference %d over %d",
			comps, len(comp), wantComps, len(wantComp))
	}
	for u, c := range wantComp {
		if comp[u] != c {
			t.Fatalf("ConnectedComponents: node %d labelled %d, reference %d", u, comp[u], c)
		}
	}
}

// TestFlatKernelsMatchReferences runs the comparison on the streams of
// the differential harness (self-loops, deletions, nodes served from the
// copy-on-write overlay, destination-only nodes, a disconnected cluster,
// roots absent from the graph), on its degenerate shapes, and on the
// destination-heavy graph of TestFlatInnerLoopAllocs, where a traversal
// enqueues 64 times more nodes than there are sources. Each view is
// checked twice, so the second pass runs on recycled scratch.
func TestFlatKernelsMatchReferences(t *testing.T) {
	check := func(t *testing.T, v *sharded.View, roots []uint64) {
		checkAgainstReferences(t, v, roots)
		checkAgainstReferences(t, v, roots)
		v.Release()
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 4; round++ {
		g := sharded.New(sharded.Config{Shards: 1 << uint(round%3+1)})
		id := func() uint64 { return uint64(rng.Intn(120)) }
		for i := 0; i < 1500; i++ {
			switch rng.Intn(10) {
			case 0:
				g.DeleteEdge(id(), id())
			case 1:
				u := id()
				g.InsertEdge(u, u)
			default:
				g.InsertEdge(id(), id())
			}
		}
		for u := uint64(5000); u < 5010; u++ {
			g.InsertEdge(u, u+1)
			g.InsertEdge(u+1, u)
		}
		g.InsertEdge(3, 7000) // a node with no out-edges of its own
		v := g.Snapshot()
		victim := uint64(7)
		for _, s := range graphstore.Successors(v, victim) {
			g.DeleteEdge(victim, s)
		}
		for i := 0; i < 300; i++ {
			g.InsertEdge(uint64(9000+rng.Intn(40)), uint64(9000+rng.Intn(40)))
			g.DeleteEdge(id(), id())
		}
		roots := append(TopDegreeNodes(storeOnly{S: v}, 3), victim, 5000, 7000, 123456 /* absent */)
		check(t, v, roots)
	}

	g := sharded.New(sharded.Config{Shards: 4})
	check(t, g.Snapshot(), []uint64{0, 1}) // empty
	g.InsertEdge(9, 9)
	check(t, g.Snapshot(), []uint64{9, 10}) // a lone self-loop
	for u := uint64(100); u < 140; u += 2 {
		g.InsertEdge(u, u+1)
	}
	check(t, g.Snapshot(), []uint64{9, 100, 117, 138, 1000}) // disconnected pairs

	g = sharded.New(sharded.Config{Shards: 4})
	for hub := uint64(0); hub < 8; hub++ {
		g.InsertEdge(hub, (hub+1)%8)
		for leaf := uint64(0); leaf < 64; leaf++ {
			g.InsertEdge(hub, 1000+hub*64+leaf)
		}
	}
	check(t, g.Snapshot(), []uint64{0, 5, 1000, 77777}) // destination-heavy
}

// TestFlatKernelsMatchReferencesOnJobGraph repeats the comparison at the
// size the benchmark's analytics_snapshot job runs at (37 578 sources,
// 40 722 nodes at seed 7), where a summation-order slip would show.
func TestFlatKernelsMatchReferencesOnJobGraph(t *testing.T) {
	g, roots := jobGraph(t)
	v := g.Snapshot()
	defer v.Release()
	checkAgainstReferences(t, v, roots)
}

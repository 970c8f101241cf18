package analytics

import (
	"sync"

	"cuckoograph/internal/csr"
	"cuckoograph/internal/graphstore"
)

// indexOf resolves the store's compiled CSR index when it advertises
// one (graphstore.Indexed — in practice a frozen sharded view, which
// memoizes the index per epoch). BFS, PageRank and ConnectedComponents
// consult it on entry and run the flat dense-id variant when it is
// present; all other stores take the identical map-based algorithm
// through the Store interface.
func indexOf(s graphstore.Store) *csr.Index {
	if ix, ok := s.(graphstore.Indexed); ok {
		return ix.CSR()
	}
	return nil
}

// scratch is the transient state of a flat kernel call: visited marks,
// queues, stacks, rank arrays. A kernel takes one from scratchPool,
// re-slices its buffers to the index at hand (sized: contents unspecified)
// and puts it back on return, so a warm call allocates only its result;
// the collector drops scratch that sits idle for two cycles.
type scratch struct {
	u8     []uint8
	i32    []int32
	f64    []float64
	frames []ccFrame
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns *buf re-sliced to n elements, reallocated when too short.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// bfsFlat is BFS over the index: an int32 frontier queue and a visited
// byte per node instead of a map — the queue in enqueue order IS the
// traversal order, translated back to sparse ids at the end.
func bfsFlat(idx *csr.Index, root uint64) []uint64 {
	r, ok := idx.DenseOf(root)
	if !ok {
		// The fallback visits the root unconditionally, present or not.
		return []uint64{root}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	visited := sized(&sc.u8, idx.NumNodes())
	clear(visited)
	// Every successor is stored at the queue's tail, and the tail moves
	// only when the node is new: an add of 0 or 1 where a test-then-branch
	// mispredicts on every other edge of a web graph. Destination-only
	// nodes are enqueued too, each node once, and the extra slot takes the
	// store that follows the last of them.
	queue := sized(&sc.i32, idx.NumNodes()+1)
	queue[0], visited[r] = r, 1
	tail := 1
	for head := 0; head < tail; head++ {
		for _, v := range idx.Succ(queue[head]) {
			queue[tail] = v
			tail += 1 - int(visited[v])
			visited[v] = 1
		}
	}
	out := make([]uint64, tail)
	for i, d := range queue[:tail] {
		out[i] = idx.IDOf(d)
	}
	return out
}

// ccFrame is one level of ccFlat's explicit call stack: a node and how
// many of its successors have been looked at.
type ccFrame struct{ node, i int32 }

// ccFlat is the iterative Tarjan SCC walk over dense ids with flat
// index/lowlink/component arrays. The component partition and count
// equal the fallback's exactly; the integer labels themselves depend
// on root iteration order, which is not part of the contract.
func ccFlat(idx *csr.Index) (map[uint64]int, int) {
	n := idx.NumNodes()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	i32 := sized(&sc.i32, 4*n)
	index, low, comp := i32[:n], i32[n:2*n], i32[2*n:3*n]
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	onStack := sized(&sc.u8, n)
	clear(onStack)
	// A node enters either stack once, so neither outgrows n.
	stack := i32[3*n : 3*n : 4*n]
	call := sized(&sc.frames, n)[:0]
	next, comps := int32(0), 0

	for root := int32(0); root < int32(idx.NumSources()); root++ {
		if index[root] >= 0 {
			continue
		}
		push := func(u int32) {
			index[u], low[u] = next, next
			next++
			stack = append(stack, u)
			onStack[u] = 1
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
				if onStack[v] != 0 && index[v] < low[f.node] {
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
					onStack[w] = 0
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

// pageRankFlat is the power method over flat rank arrays. Ranks live
// on the source nodes (dense ids < NumSources, exactly the node set
// the fallback iterates); the next array spans all nodes so shares
// pushed at destination-only nodes land somewhere, as in the map
// version, and are likewise never read back.
//
// The loops run edge by edge: esrc is filled once with every edge's
// source, and an iteration is a division per source and one flat pass
// over the edge array whose only exit is its end, where a loop nest over
// degree-5 adjacencies exits, unpredictably, once per node. Shares are
// added in the nest's order (source ascending, then successor order), so
// the ranks are bit for bit what it computes.
func pageRankFlat(idx *csr.Index, iters int) map[uint64]float64 {
	srcs := idx.NumSources()
	if srcs == 0 {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	f64 := sized(&sc.f64, 2*srcs+idx.NumNodes())
	rank, contrib, next := f64[:srcs], f64[srcs:2*srcs], f64[2*srcs:]
	edges := idx.Edges()
	esrc := sized(&sc.i32, len(edges))
	const damping = 0.85
	n := float64(srcs)
	e := 0
	for u := range rank {
		rank[u] = 1 / n
		for end := e + idx.Degree(int32(u)); e < end; e++ {
			esrc[e] = int32(u)
		}
	}
	for it := 0; it < iters; it++ {
		clear(next)
		for u := range contrib {
			contrib[u] = rank[u] / float64(idx.Degree(int32(u))) // a source's degree is never 0
		}
		for e, v := range edges {
			next[v] += contrib[esrc[e]]
		}
		for u := range rank {
			rank[u] = (1-damping)/n + damping*next[u]
		}
	}
	out := make(map[uint64]float64, srcs)
	for u, r := range rank {
		out[idx.IDOf(int32(u))] = r
	}
	return out
}

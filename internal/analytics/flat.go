package analytics

import (
	"sort"
	"sync"

	"cuckoograph/internal/csr"
	"cuckoograph/internal/graphstore"
)

// indexOf resolves the store's compiled CSR index when it advertises
// one (graphstore.Indexed — in practice a frozen sharded view, which
// memoizes the index per epoch). Every kernel consults it on entry and
// runs the flat dense-id variant when it is present; all other stores
// take the identical map-based algorithm through the Store interface.
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

// dijkstraFlat is Dijkstra over the index with a flat binary heap of
// (distance, node) pairs packed into uint64s — distance in the high
// word so the packed values order by distance — and a dense distance
// array instead of the map.
func dijkstraFlat(idx *csr.Index, src uint64) map[uint64]uint64 {
	s, ok := idx.DenseOf(src)
	if !ok {
		return map[uint64]uint64{src: 0}
	}
	const unreached = ^uint64(0)
	dist := make([]uint64, idx.NumNodes())
	for i := range dist {
		dist[i] = unreached
	}
	dist[s] = 0
	// Unit weights: a node's first label is final, so each is pushed once.
	heap := make([]uint64, 0, idx.NumNodes())
	heap = heapPush(heap, uint64(s)) // distance 0 << 32 | s
	reached := 1                     // one push per reached node
	for len(heap) > 0 {
		var it uint64
		heap, it = heapPop(heap)
		d, u := it>>32, int32(it&0xFFFFFFFF)
		if d > dist[u] {
			continue // stale entry
		}
		nd := d + 1
		for _, v := range idx.Succ(u) {
			if nd < dist[v] {
				dist[v] = nd
				heap = heapPush(heap, nd<<32|uint64(uint32(v)))
				reached++
			}
		}
	}
	out := make(map[uint64]uint64, reached)
	for i, d := range dist {
		if d != unreached {
			out[idx.IDOf(int32(i))] = d
		}
	}
	return out
}

func heapPush(h []uint64, x uint64) []uint64 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return h, top
}

// tcFlat counts triangles through node with the paper's 2-hop probe
// method, the closing-edge query served by binary search over the
// index's sorted adjacency copy.
func tcFlat(idx *csr.Index, node uint64) int {
	d, ok := idx.DenseOf(node)
	if !ok {
		return 0
	}
	count := 0
	for _, mid := range idx.Succ(d) {
		for _, far := range idx.Succ(mid) {
			if idx.HasEdgeDense(far, d) {
				count++
			}
		}
	}
	return count
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

// betweennessFlat is Brandes over flat per-source state: distance,
// path-count and dependency arrays reset via the previous round's
// visit order (touched entries only, so sparse traversals stay cheap)
// and predecessor lists with reused backing.
func betweennessFlat(idx *csr.Index) map[uint64]float64 {
	n := idx.NumNodes()
	bc := make([]float64, n)
	inBC := make([]bool, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]int32, n)
	var order []int32
	marked := 0

	for src := int32(0); src < int32(idx.NumSources()); src++ {
		for _, w := range order {
			dist[w] = -1
			sigma[w], delta[w] = 0, 0
			preds[w] = preds[w][:0]
		}
		order = order[:0]
		sigma[src], dist[src] = 1, 0
		order = append(order, src)
		for head := 0; head < len(order); head++ {
			u := order[head]
			du := dist[u]
			for _, v := range idx.Succ(u) {
				if dist[v] < 0 {
					dist[v] = du + 1
					order = append(order, v)
				}
				if dist[v] == du+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range preds[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				bc[w] += delta[w]
				if !inBC[w] {
					inBC[w] = true
					marked++
				}
			}
		}
	}
	out := make(map[uint64]float64, marked)
	for i := int32(0); i < int32(n); i++ {
		if inBC[i] {
			out[idx.IDOf(i)] = bc[i]
		}
	}
	return out
}

// localClusteringFlat probes every neighbour pair of every source node
// against the sorted adjacency copy.
func localClusteringFlat(idx *csr.Index) map[uint64]float64 {
	srcs := int32(idx.NumSources())
	out := make(map[uint64]float64, srcs)
	for u := int32(0); u < srcs; u++ {
		neigh := idx.Succ(u)
		k := len(neigh)
		if k < 2 {
			out[idx.IDOf(u)] = 0
			continue
		}
		links := 0
		for _, a := range neigh {
			for _, b := range neigh {
				if a != b && idx.HasEdgeDense(a, b) {
					links++
				}
			}
		}
		out[idx.IDOf(u)] = float64(links) / float64(k*(k-1))
	}
	return out
}

// topDegreeFlat ranks nodes by total degree from the index alone: the
// out-degree is an offsets difference, the in-degree one pass over the
// flat edge array.
func topDegreeFlat(idx *csr.Index, count int) []uint64 {
	n := idx.NumNodes()
	total := make([]int, n)
	for u := int32(0); u < int32(idx.NumSources()); u++ {
		total[u] += idx.Degree(u)
		for _, v := range idx.Succ(u) {
			total[v]++
		}
	}
	all := make([]int32, 0, n)
	for i := int32(0); i < int32(n); i++ {
		if total[i] > 0 {
			all = append(all, i)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		ti, tj := total[all[i]], total[all[j]]
		if ti != tj {
			return ti > tj
		}
		return idx.IDOf(all[i]) < idx.IDOf(all[j])
	})
	if count > len(all) {
		count = len(all)
	}
	out := make([]uint64, count)
	for i := 0; i < count; i++ {
		out[i] = idx.IDOf(all[i])
	}
	return out
}

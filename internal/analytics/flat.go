package analytics

import (
	"sort"

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

// bitset is a flat visited/marked set over dense ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// bfsFlat is BFS over the index: an int32 frontier queue and a visited
// bitset instead of a map — the queue in append order IS the traversal
// order, translated back to sparse ids at the end.
func bfsFlat(idx *csr.Index, root uint64) []uint64 {
	r, ok := idx.DenseOf(root)
	if !ok {
		// The fallback visits the root unconditionally, present or not.
		return []uint64{root}
	}
	visited := newBitset(idx.NumNodes())
	// Destination-only nodes are enqueued too: every node at most once.
	queue := make([]int32, 0, idx.NumNodes())
	queue = bfsFlatInto(idx, r, visited, queue)
	out := make([]uint64, len(queue))
	for i, d := range queue {
		out[i] = idx.IDOf(d)
	}
	return out
}

// bfsFlatInto runs the allocation-free BFS inner loop: visited must be
// zeroed and sized for idx.NumNodes(), queue empty. It returns the
// traversal order in dense ids (the filled queue). Given adequate
// queue capacity the loop performs zero heap allocations — pinned by
// TestFlatInnerLoopAllocs.
func bfsFlatInto(idx *csr.Index, root int32, visited bitset, queue []int32) []int32 {
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
			}
		}
	}
	out := make(map[uint64]uint64)
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

// ccFlat is the iterative Tarjan SCC walk over dense ids with flat
// index/lowlink/component arrays. The component partition and count
// equal the fallback's exactly; the integer labels themselves depend
// on root iteration order, which is not part of the contract.
func ccFlat(idx *csr.Index) (map[uint64]int, int) {
	n := idx.NumNodes()
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	onStack := newBitset(n)
	var stack []int32
	type frame struct {
		node int32
		i    int32
	}
	var call []frame
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
			call = append(call, frame{node: u})
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

// pageRankFlat is the power method over flat rank arrays. Ranks live
// on the source nodes (dense ids < NumSources, exactly the node set
// the fallback iterates); the next array spans all nodes so shares
// pushed at destination-only nodes land somewhere, as in the map
// version, and are likewise never read back.
func pageRankFlat(idx *csr.Index, iters int) map[uint64]float64 {
	srcs := idx.NumSources()
	if srcs == 0 {
		return nil
	}
	rank := make([]float64, idx.NumNodes())
	next := make([]float64, idx.NumNodes())
	pageRankFlatInto(idx, iters, rank, next)
	out := make(map[uint64]float64, srcs)
	for u := 0; u < srcs; u++ {
		out[idx.IDOf(int32(u))] = rank[u]
	}
	return out
}

// pageRankFlatInto runs the allocation-free PageRank inner loops: rank
// and next must be zeroed and sized for idx.NumNodes(). On return rank
// holds the final ranks of the source nodes. Pinned allocation-free by
// TestFlatInnerLoopAllocs.
func pageRankFlatInto(idx *csr.Index, iters int, rank, next []float64) {
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

// betweennessFlat is Brandes over flat per-source state: distance,
// path-count and dependency arrays reset via the previous round's
// visit order (touched entries only, so sparse traversals stay cheap)
// and predecessor lists with reused backing.
func betweennessFlat(idx *csr.Index) map[uint64]float64 {
	n := idx.NumNodes()
	bc := make([]float64, n)
	inBC := newBitset(n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]int32, n)
	var order []int32

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
				inBC.set(w)
			}
		}
	}
	out := make(map[uint64]float64)
	for i := int32(0); i < int32(n); i++ {
		if inBC.has(i) {
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

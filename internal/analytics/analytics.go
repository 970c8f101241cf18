// Package analytics implements the seven graph analytics tasks of the
// paper's §V-E — Breadth-First Search, Single-Source Shortest Paths
// (Dijkstra), Triangle Counting, Connected Components (Tarjan),
// PageRank, Betweenness Centrality (Brandes) and Local Clustering
// Coefficient — against any graphstore.Store, so every storage scheme
// runs the identical algorithm and only the store's successor/edge
// query speed differs, exactly as in the paper's methodology.
//
// BFS, PageRank and ConnectedComponents — the three a frozen view is
// asked for (SafeGraph, graph.bfs/graph.pagerank, the analytics_snapshot
// workload) — also have a CSR kernel in flat.go, taken when the store is
// graphstore.Indexed. The other four tasks and TopDegreeNodes run through
// the Store interface on every store, a view included.
package analytics

import (
	"container/heap"
	"sort"

	"cuckoograph/internal/graphstore"
)

// BFS traverses from root, returning the visited nodes in traversal
// order (§V-E1: "returning each node and the number of nodes obtained in
// the order of BFS traversal").
func BFS(s graphstore.Store, root uint64) []uint64 {
	if idx := indexOf(s); idx != nil {
		return bfsFlat(idx, root)
	}
	visited := map[uint64]bool{root: true}
	order := []uint64{root}
	for head := 0; head < len(order); head++ {
		s.ForEachSuccessor(order[head], func(v uint64) bool {
			if !visited[v] {
				visited[v] = true
				order = append(order, v)
			}
			return true
		})
	}
	return order
}

// distItem is a priority-queue element for Dijkstra.
type distItem struct {
	node uint64
	dist uint64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// Dijkstra computes shortest-path distances from src with unit edge
// weights (§V-E2 runs Dijkstra from the 10 highest-degree nodes). The
// returned map holds every reachable node.
func Dijkstra(s graphstore.Store, src uint64) map[uint64]uint64 {
	dist := map[uint64]uint64{src: 0}
	h := &distHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if d, ok := dist[it.node]; ok && it.dist > d {
			continue
		}
		s.ForEachSuccessor(it.node, func(v uint64) bool {
			nd := it.dist + 1
			if d, ok := dist[v]; !ok || nd < d {
				dist[v] = nd
				heap.Push(h, distItem{node: v, dist: nd})
			}
			return true
		})
	}
	return dist
}

// TriangleCount returns the number of triangles containing node, using
// the paper's method (§V-E3): enumerate 2-hop successors, then probe the
// closing edge ⟨2-hop successor, node⟩ with edge queries.
func TriangleCount(s graphstore.Store, node uint64) int {
	count := 0
	s.ForEachSuccessor(node, func(mid uint64) bool {
		s.ForEachSuccessor(mid, func(far uint64) bool {
			if s.HasEdge(far, node) {
				count++
			}
			return true
		})
		return true
	})
	return count
}

// Nodes collects the distinct source nodes of a store.
func Nodes(s graphstore.Store) []uint64 {
	var out []uint64
	s.ForEachNode(func(u uint64) bool {
		out = append(out, u)
		return true
	})
	return out
}

// ConnectedComponents runs Tarjan's strongly-connected-components
// algorithm (iterative, to survive deep graphs) over the nodes of s and
// returns the component id of every visited node plus the component
// count (§V-E4 runs "the Tarjan algorithm ... returning the connected
// components and their number").
func ConnectedComponents(s graphstore.Store) (map[uint64]int, int) {
	if idx := indexOf(s); idx != nil {
		return ccFlat(idx)
	}
	index := map[uint64]int{}
	low := map[uint64]int{}
	onStack := map[uint64]bool{}
	comp := map[uint64]int{}
	var stack []uint64
	next, comps := 0, 0

	type frame struct {
		node uint64
		succ []uint64
		i    int
	}
	for _, root := range Nodes(s) {
		if _, seen := index[root]; seen {
			continue
		}
		var call []frame
		push := func(u uint64) {
			index[u] = next
			low[u] = next
			next++
			stack = append(stack, u)
			onStack[u] = true
			call = append(call, frame{node: u, succ: graphstore.Successors(s, u)})
		}
		push(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			advanced := false
			for f.i < len(f.succ) {
				v := f.succ[f.i]
				f.i++
				if _, seen := index[v]; !seen {
					push(v)
					advanced = true
					break
				}
				if onStack[v] && index[v] < low[f.node] {
					low[f.node] = index[v]
				}
			}
			if advanced {
				continue
			}
			// f is complete: pop an SCC if it is a root.
			if low[f.node] == index[f.node] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = comps
					if w == f.node {
						break
					}
				}
				comps++
			}
			done := *f
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if low[done.node] < low[parent.node] {
					low[parent.node] = low[done.node]
				}
			}
		}
	}
	return comp, comps
}

// PageRank iterates the power method for iters rounds with damping 0.85
// (§V-E5 iterates 100 times on the subgraph matrix).
func PageRank(s graphstore.Store, iters int) map[uint64]float64 {
	if idx := indexOf(s); idx != nil {
		return pageRankFlat(idx, iters)
	}
	nodes := Nodes(s)
	if len(nodes) == 0 {
		return nil
	}
	const damping = 0.85
	n := float64(len(nodes))
	rank := make(map[uint64]float64, len(nodes))
	deg := make(map[uint64]int, len(nodes))
	for _, u := range nodes {
		rank[u] = 1 / n
		deg[u] = graphstore.Degree(s, u)
	}
	for it := 0; it < iters; it++ {
		next := make(map[uint64]float64, len(rank))
		leak := 0.0
		for _, u := range nodes {
			if deg[u] == 0 {
				leak += rank[u]
				continue
			}
			share := rank[u] / float64(deg[u])
			s.ForEachSuccessor(u, func(v uint64) bool {
				next[v] += share
				return true
			})
		}
		for _, u := range nodes {
			rank[u] = (1-damping)/n + damping*(next[u]+leak/n)
		}
	}
	return rank
}

// Betweenness runs Brandes' algorithm (§V-E6) and returns the
// betweenness centrality of every node.
func Betweenness(s graphstore.Store) map[uint64]float64 {
	nodes := Nodes(s)
	bc := make(map[uint64]float64, len(nodes))
	for _, src := range nodes {
		// Single-source shortest-path DAG by BFS.
		var order []uint64
		pred := map[uint64][]uint64{}
		sigma := map[uint64]float64{src: 1}
		dist := map[uint64]int{src: 0}
		queue := []uint64{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			s.ForEachSuccessor(u, func(v uint64) bool {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					pred[v] = append(pred[v], u)
				}
				return true
			})
		}
		delta := map[uint64]float64{}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, u := range pred[w] {
				delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}

// LocalClustering pre-computes all neighbours of every node (the
// methodology of §V-E7) and returns the local clustering coefficient of
// each: the fraction of neighbour pairs that are themselves connected.
func LocalClustering(s graphstore.Store) map[uint64]float64 {
	nodes := Nodes(s)
	adj := make(map[uint64][]uint64, len(nodes))
	for _, u := range nodes {
		adj[u] = graphstore.Successors(s, u)
	}
	lcc := make(map[uint64]float64, len(nodes))
	for _, u := range nodes {
		neigh := adj[u]
		k := len(neigh)
		if k < 2 {
			lcc[u] = 0
			continue
		}
		links := 0
		for _, a := range neigh {
			for _, b := range neigh {
				if a != b && s.HasEdge(a, b) {
					links++
				}
			}
		}
		lcc[u] = float64(links) / float64(k*(k-1))
	}
	return lcc
}

// TopDegreeNodes returns the count highest-total-degree nodes (total =
// out-degree + in-degree), the node-selection rule used throughout §V-E.
// The out-degree side comes from the store's counter-backed Degree when
// it has one (graphstore.Degreer); only the in-degree accumulation still
// scans the adjacency.
func TopDegreeNodes(s graphstore.Store, count int) []uint64 {
	nodes := Nodes(s)
	total := make(map[uint64]int, len(nodes))
	for _, u := range nodes {
		if d := graphstore.Degree(s, u); d > 0 {
			total[u] += d
		}
		s.ForEachSuccessor(u, func(v uint64) bool {
			total[v]++
			return true
		})
	}
	all := make([]uint64, 0, len(total))
	for u := range total {
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool {
		if total[all[i]] != total[all[j]] {
			return total[all[i]] > total[all[j]]
		}
		return all[i] < all[j]
	})
	if count > len(all) {
		count = len(all)
	}
	return all[:count]
}

// ExtractSubgraph copies the edges among the given nodes into dst — the
// subgraph-extraction step of §V-E4..E7.
func ExtractSubgraph(src graphstore.Store, nodes []uint64, dst graphstore.Store) {
	keep := make(map[uint64]bool, len(nodes))
	for _, u := range nodes {
		keep[u] = true
	}
	for _, u := range nodes {
		src.ForEachSuccessor(u, func(v uint64) bool {
			if keep[v] {
				dst.InsertEdge(u, v)
			}
			return true
		})
	}
}

package main

import (
	"math"
	"sort"
	"time"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/core"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/hashutil"
	"cuckoograph/internal/sharded"
)

const (
	anPageRankIters = 10
	anRoots         = 4
	anDamping       = 0.85 // the kernels' damping factor
)

func genAnalytics(seed uint64, sz sizes) []dataset.Edge {
	spec, ok := dataset.ByName("NotreDame")
	if !ok {
		panic("dataset: NotreDame spec missing")
	}
	return dataset.Dedup(dataset.Generate(spec, sz.anScale, seed))
}

func hashAnalytics(seed uint64, sz sizes) uint64 {
	h := newFNV()
	for _, e := range genAnalytics(seed, sz) {
		h.add(e.U)
		h.add(e.V)
	}
	return uint64(h)
}

// oracle is a plain adjacency-array copy of the input graph with
// textbook kernels over it. It shares no code with the engine, the view,
// the CSR index or the analytics package, and is what round 0's results
// are compared with.
type oracle struct {
	ids   []uint64         // dense index → node id; sources first
	index map[uint64]int32 // node id → dense index
	adj   [][]int32
	srcs  int // nodes with at least one out-edge
}

func newOracle(edges []dataset.Edge) *oracle {
	o := &oracle{index: make(map[uint64]int32)}
	intern := func(id uint64) {
		if _, ok := o.index[id]; !ok {
			o.index[id] = int32(len(o.ids))
			o.ids = append(o.ids, id)
		}
	}
	for _, e := range edges {
		intern(e.U)
	}
	o.srcs = len(o.ids)
	for _, e := range edges {
		intern(e.V)
	}
	o.adj = make([][]int32, len(o.ids))
	for _, e := range edges {
		u := o.index[e.U]
		o.adj[u] = append(o.adj[u], o.index[e.V])
	}
	return o
}

// topDegree returns the k sources of highest out-degree, ties broken by
// smaller node id.
func (o *oracle) topDegree(k int) []uint64 {
	order := make([]int32, o.srcs)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(o.adj[order[a]]), len(o.adj[order[b]])
		if da != db {
			return da > db
		}
		return o.ids[order[a]] < o.ids[order[b]]
	})
	out := make([]uint64, 0, k)
	for _, d := range order[:min(k, len(order))] {
		out = append(out, o.ids[d])
	}
	return out
}

// reach marks every node reachable from root.
func (o *oracle) reach(root uint64) []bool {
	seen := make([]bool, len(o.ids))
	r, ok := o.index[root]
	if !ok {
		return seen
	}
	seen[r] = true
	stack := []int32{r}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range o.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// scc labels strongly connected components with Kosaraju's two passes
// (the engine's kernel is Tarjan's single pass) and returns the label of
// every node and the component count.
func (o *oracle) scc() ([]int32, int) {
	n := len(o.ids)
	radj := make([][]int32, n)
	for u, vs := range o.adj {
		for _, v := range vs {
			radj[v] = append(radj[v], int32(u))
		}
	}
	// Pass 1: finishing order by iterative DFS.
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	type frame struct {
		u int32
		i int
	}
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack := []frame{{u: int32(s)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(o.adj[f.u]) {
				v := o.adj[f.u][f.i]
				f.i++
				if !seen[v] {
					seen[v] = true
					stack = append(stack, frame{u: v})
				}
				continue
			}
			order = append(order, f.u)
			stack = stack[:len(stack)-1]
		}
	}
	// Pass 2: sweep the reversed graph in reverse finishing order.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	comps := 0
	for i := n - 1; i >= 0; i-- {
		if comp[order[i]] >= 0 {
			continue
		}
		comp[order[i]] = int32(comps)
		stack := []int32{order[i]}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range radj[u] {
				if comp[v] < 0 {
					comp[v] = int32(comps)
					stack = append(stack, v)
				}
			}
		}
		comps++
	}
	return comp, comps
}

// pageRank is the power method as the engine defines it: ranks live on
// the source nodes, and the share a source pushes to a node without
// out-edges leaves the system.
func (o *oracle) pageRank(iters int) []float64 {
	n := float64(o.srcs)
	rank := make([]float64, len(o.ids))
	next := make([]float64, len(o.ids))
	for u := 0; u < o.srcs; u++ {
		rank[u] = 1 / n
	}
	for it := 0; it < iters; it++ {
		clear(next)
		for u := 0; u < o.srcs; u++ {
			share := rank[u] / float64(len(o.adj[u]))
			for _, v := range o.adj[u] {
				next[v] += share
			}
		}
		for u := 0; u < o.srcs; u++ {
			rank[u] = (1-anDamping)/n + anDamping*next[u]
		}
	}
	return rank[:o.srcs]
}

// jobResult is what one analytics job returns for checking.
type jobResult struct {
	edges    uint64
	csrBytes uint64 // size of the view's CSR index
	pr       map[uint64]float64
	bfs      [][]uint64
	comp     map[uint64]int
	comps    int
}

// runJob is the timed unit: snapshot → CSR → PageRank → BFS from each
// root → components → release.
func runJob(g *sharded.Graph, roots []uint64, tr *tracer, round int) (jobResult, time.Duration) {
	var jr jobResult
	start := time.Now()
	root := tr.add(-1, round, layerBenchmark, "job", start, start)
	v := g.Snapshot()
	t := time.Now()
	tr.add(root, round, layerSharded, "Snapshot", start, t)
	jr.csrBytes = v.CSR().MemoryBytes()
	t2 := time.Now()
	tr.add(root, round, layerCSR, "View.CSR", t, t2)
	jr.pr = analytics.PageRank(v, anPageRankIters)
	t = time.Now()
	tr.add(root, round, layerAnalytics, "PageRank", t2, t)
	for _, r := range roots {
		jr.bfs = append(jr.bfs, analytics.BFS(v, r))
	}
	t2 = time.Now()
	tr.add(root, round, layerAnalytics, "BFS", t, t2)
	jr.comp, jr.comps = analytics.ConnectedComponents(v)
	t = time.Now()
	tr.add(root, round, layerAnalytics, "ConnectedComponents", t2, t)
	jr.edges = v.NumEdges()
	v.Release()
	end := time.Now()
	tr.add(root, round, layerSharded, "Release", t, end)
	tr.end(root)
	return jr, end.Sub(start)
}

// loadSharded loads edges into a fresh sharded graph through the batch path.
func loadSharded(edges []dataset.Edge) *sharded.Graph {
	g := sharded.New(sharded.Config{Shards: inProcShards})
	c := core.NewChunker(sharded.LoadBatchSize, func(b core.Batch) { g.ApplyBatch(b) })
	for _, e := range edges {
		c.Insert(e.U, e.V)
	}
	c.Flush()
	return g
}

func buildAnalytics(seed uint64, sz sizes, _ string) (*system, error) {
	edges := genAnalytics(seed, sz)
	or := newOracle(edges)
	roots := or.topDegree(anRoots)
	wantReach := make([][]bool, len(roots))
	for i, r := range roots {
		wantReach[i] = or.reach(r)
	}
	wantComp, wantComps := or.scc()
	wantPR := or.pageRank(anPageRankIters)

	base := liveHeap()
	g := loadSharded(edges)
	sys := &system{shards: g.Shards(), close: func() {}, extra: map[string]metric{}}
	sys.heapBytes, sys.heapEdges = heapDelta(base), g.NumEdges()

	// Churn between jobs swaps anChurn random live edges out and the
	// previous round's back in, so the graph keeps its shape and size
	// while every job sees a different edge set.
	rng := hashutil.NewRNG(seed ^ 0xa11a17)
	live := append([]dataset.Edge(nil), edges...)
	var out []dataset.Edge
	churn := func() bool {
		b := make(core.Batch, 0, 2*sz.anChurn)
		for _, e := range out {
			b = b.Insert(e.U, e.V)
		}
		back := out
		out = make([]dataset.Edge, 0, sz.anChurn)
		for i := 0; i < sz.anChurn && len(live) > 1; i++ {
			k := rng.Intn(len(live))
			e := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, e)
			b = b.Delete(e.U, e.V)
		}
		live = append(live, back...)
		res := g.ApplyBatch(b)
		return res.Inserted == uint64(len(back)) && res.Deleted == uint64(len(out))
	}

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		check := func(ok bool) {
			rs.attempted++
			if !ok {
				rs.failed++
			}
		}
		jr, d := runJob(g, roots, tr, r)
		rs.ops, rs.dur = 1, d
		rs.lat = []float64{float64(d.Nanoseconds()) / 1e3}

		check(jr.edges == uint64(len(live)))
		mass := 0.0
		for _, x := range jr.pr {
			mass += x
		}
		// Mass can only leave through nodes without out-edges, and the
		// teleport term alone guarantees 1-d of it.
		check(mass > 1-anDamping-1e-9 && mass < 1+1e-9)
		check(jr.comps > 0 && len(jr.bfs) == len(roots))
		if r == 0 {
			// Round 0 runs on the pristine input: compare with the oracle.
			check(len(jr.pr) == or.srcs)
			worst := 0.0
			for u, x := range jr.pr {
				worst = max(worst, math.Abs(x-wantPR[or.index[u]]))
			}
			check(worst < 1e-12)
			for i, order := range jr.bfs {
				n := 0
				for _, ok := range wantReach[i] {
					if ok {
						n++
					}
				}
				good := len(order) == n
				for _, u := range order {
					d, ok := or.index[u]
					good = good && ok && wantReach[i][d]
				}
				check(good)
			}
			check(jr.comps == wantComps && len(jr.comp) == len(or.ids))
			// Same partition: labels must map one-to-one.
			fwd, bwd := map[int]int32{}, map[int32]int{}
			same := true
			for u, c := range jr.comp {
				w := wantComp[or.index[u]]
				if x, ok := fwd[c]; ok && x != w {
					same = false
				}
				if x, ok := bwd[w]; ok && x != c {
					same = false
				}
				fwd[c], bwd[w] = w, c
			}
			check(same)
		}
		check(churn())
		return rs
	}
	return sys, nil
}

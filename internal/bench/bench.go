// Package bench is the measurement harness behind every figure and
// table of the paper's evaluation (§V). It measures insertion, query
// and deletion throughput in Mops, samples structural memory during
// insertion, sweeps CuckooGraph parameters, and runs the seven graph
// analytics tasks — printing the same rows and series the paper plots.
// It holds nothing else: the serving stack (sharding, WAL, views, CSR,
// server) is measured by the repo benchmark under benchmark/.
package bench

import (
	"fmt"
	"io"
	"time"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/core"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/stores"
)

// Mops converts an operation count and duration to million ops/second.
func Mops(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}

// OpsResult holds one scheme's basic-task measurements (§V-D).
type OpsResult struct {
	InsertMops float64
	QueryMops  float64
	DeleteMops float64
	MemoryMB   float64 // after all deduped inserts
}

// MemPoint is one sample of the Figure 9 memory curve.
type MemPoint struct {
	Inserted int
	Bytes    uint64
}

// BasicOps runs the §V-D methodology on one store: insert the whole
// stream, query every edge, then delete edges one by one; finally replay
// the deduped stream to record the memory curve.
func BasicOps(f graphstore.Factory, stream []dataset.Edge, samples int) (OpsResult, []MemPoint) {
	var res OpsResult

	s := f.New()
	start := time.Now()
	for _, e := range stream {
		s.InsertEdge(e.U, e.V)
	}
	res.InsertMops = Mops(len(stream), time.Since(start))

	start = time.Now()
	for _, e := range stream {
		s.HasEdge(e.U, e.V)
	}
	res.QueryMops = Mops(len(stream), time.Since(start))

	dedup := dataset.Dedup(stream)
	start = time.Now()
	for _, e := range dedup {
		s.DeleteEdge(e.U, e.V)
	}
	res.DeleteMops = Mops(len(dedup), time.Since(start))

	// Memory curve on a fresh store over the deduped stream (§V-D: "we
	// first de-duplicate the datasets ... after each insertion, the
	// physical memory overhead at that moment is output").
	s = f.New()
	if samples <= 0 {
		samples = 20
	}
	every := len(dedup) / samples
	if every == 0 {
		every = 1
	}
	var curve []MemPoint
	for i, e := range dedup {
		s.InsertEdge(e.U, e.V)
		if (i+1)%every == 0 || i == len(dedup)-1 {
			curve = append(curve, MemPoint{Inserted: i + 1, Bytes: s.MemoryUsage()})
		}
	}
	res.MemoryMB = float64(s.MemoryUsage()) / (1 << 20)
	return res, curve
}

// InsertQueryThroughput measures only insert and query Mops plus final
// memory — the §V-B parameter-sweep metric.
func InsertQueryThroughput(newStore func() graphstore.Store, stream []dataset.Edge) (insertMops, queryMops, memMB float64) {
	s := newStore()
	start := time.Now()
	for _, e := range stream {
		s.InsertEdge(e.U, e.V)
	}
	insert := time.Since(start)
	start = time.Now()
	for _, e := range stream {
		s.HasEdge(e.U, e.V)
	}
	query := time.Since(start)
	return Mops(len(stream), insert), Mops(len(stream), query),
		float64(s.MemoryUsage()) / (1 << 20)
}

// SweepPoint is one (parameter value, measurements) row of Figures 2-4.
type SweepPoint struct {
	Param      string
	InsertMops float64
	QueryMops  float64
	MemoryMB   float64
}

// SweepParam measures CuckooGraph across parameter values; configure
// builds the core config for each value (Figures 2, 3, 4).
func SweepParam(values []string, configure func(v string) core.Config, stream []dataset.Edge) []SweepPoint {
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		cfg := configure(v)
		ins, qry, mem := InsertQueryThroughput(func() graphstore.Store {
			return stores.NewCuckooGraphWith(cfg)
		}, stream)
		out = append(out, SweepPoint{Param: v, InsertMops: ins, QueryMops: qry, MemoryMB: mem})
	}
	return out
}

// AnalyticsTask names one §V-E task.
type AnalyticsTask string

// The seven analytics tasks of §V-E.
const (
	TaskBFS  AnalyticsTask = "BFS"
	TaskSSSP AnalyticsTask = "SSSP"
	TaskTC   AnalyticsTask = "TC"
	TaskCC   AnalyticsTask = "CC"
	TaskPR   AnalyticsTask = "PR"
	TaskBC   AnalyticsTask = "BC"
	TaskLCC  AnalyticsTask = "LCC"
)

// LoadStream feeds a generated stream into s through the batched
// mutation path when the store has one, chunked so each ApplyBatch
// amortizes lock acquisitions; stores without a batch
// path fall back to per-edge inserts. It is the shared load phase of
// RunAnalytics and of cgbench's table3 and kicks.
func LoadStream(s graphstore.Store, stream []dataset.Edge) {
	bs, ok := s.(interface {
		ApplyBatch(core.Batch) core.BatchResult
	})
	if !ok {
		for _, e := range stream {
			s.InsertEdge(e.U, e.V)
		}
		return
	}
	c := core.NewChunker(sharded.LoadBatchSize, func(b core.Batch) { bs.ApplyBatch(b) })
	for _, e := range stream {
		c.Insert(e.U, e.V)
	}
	c.Flush()
}

// RunAnalytics loads the stream into a store built by f and times the
// given task with the §V-E methodology (top-degree roots, extracted
// subgraphs). subNodes bounds the subgraph size for the heavy tasks.
func RunAnalytics(f graphstore.Factory, stream []dataset.Edge, task AnalyticsTask, subNodes int) time.Duration {
	s := f.New()
	LoadStream(s, stream)
	switch task {
	case TaskBFS:
		roots := analytics.TopDegreeNodes(s, 5)
		start := time.Now()
		for _, r := range roots {
			analytics.BFS(s, r)
		}
		return time.Since(start) / time.Duration(max(1, len(roots)))
	case TaskSSSP:
		// §V-E2: subgraph of top-degree nodes, Dijkstra from the top 10.
		top := analytics.TopDegreeNodes(s, subNodes)
		sub := f.New()
		analytics.ExtractSubgraph(s, top, sub)
		srcs := top
		if len(srcs) > 10 {
			srcs = srcs[:10]
		}
		start := time.Now()
		for _, src := range srcs {
			analytics.Dijkstra(sub, src)
		}
		return time.Since(start) / time.Duration(max(1, len(srcs)))
	case TaskTC:
		roots := analytics.TopDegreeNodes(s, 5)
		start := time.Now()
		for _, r := range roots {
			analytics.TriangleCount(s, r)
		}
		return time.Since(start) / time.Duration(max(1, len(roots)))
	default:
		top := analytics.TopDegreeNodes(s, subNodes)
		sub := f.New()
		analytics.ExtractSubgraph(s, top, sub)
		start := time.Now()
		switch task {
		case TaskCC:
			analytics.ConnectedComponents(sub)
		case TaskPR:
			analytics.PageRank(sub, 100)
		case TaskBC:
			analytics.Betweenness(sub)
		case TaskLCC:
			analytics.LocalClustering(sub)
		}
		return time.Since(start)
	}
}

// PrintTable writes rows under a header with aligned columns; cells
// beyond the header's width are printed unpadded.
func PrintTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(w, "%-*s  ", width, c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names are the repo's modules; "benchmark" is this directory.
const (
	layerBenchmark = "benchmark"
	layerCuckoo    = "cuckoo"
	layerCore      = "core"
	layerSharded   = "sharded"
	layerWAL       = "wal"
	layerCSR       = "csr"
	layerAnalytics = "analytics"
	layerResp      = "resp"
	layerRedislike = "redislike"
)

// tracedLayers are the layers a traced workload run can attribute self
// time to, in stack order. cuckoo and resp are below the public
// functions the benchmark can wrap; their cost comes from the probes.
var tracedLayers = []string{layerBenchmark, layerCore, layerSharded, layerWAL, layerCSR, layerAnalytics, layerRedislike}

// span is one traced interval: a call from the benchmark into a layer's
// public function (or, for ns-scale calls, one 1024-call block of them).
// Parent is the span that caused it, -1 for a round's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally outside their hot loops.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span from timestamps the caller already took.
func (t *tracer) add(parent int32, round int, layer, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: int32(round), Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// begin opens a span whose children will be recorded before it ends.
func (t *tracer) begin(parent int32, round int, layer, name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(parent, round, layer, name, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each layer's self time over spans: a span's
// duration minus the part of that interval its child spans cover.
// Children may overlap one another (a batch fans out across shards), so
// the covered part is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals within [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := lo
	for _, k := range kids {
		a, b := max(k.Start, edge), min(k.End, hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Env   envHeader `json:"env"`
	Spans []span    `json:"spans"`
}

func (t *tracer) write(path string, env envHeader) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traceFile{Env: env, Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

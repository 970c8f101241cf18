package main

import (
	"fmt"
	"time"

	"cuckoograph"
	"cuckoograph/internal/dataset"
	"cuckoograph/internal/hashutil"
)

// fnv is an incremental FNV-1a over 64-bit words, for input hashes.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(x uint64) {
	for i := 0; i < 8; i++ {
		h.addByte(byte(x))
		x >>= 8
	}
}

func (h *fnv) addByte(b byte) { *h = (*h ^ fnv(b)) * 1099511628211 }

// ---- lib_basic ----

type libBasicInputs struct {
	stream   []dataset.Edge
	distinct []dataset.Edge
}

func genLibBasic(seed uint64, sz sizes) libBasicInputs {
	spec, ok := dataset.ByName("StackOverflow")
	if !ok {
		panic("dataset: StackOverflow spec missing")
	}
	stream := dataset.Generate(spec, sz.libScale, seed)
	return libBasicInputs{stream: stream, distinct: dataset.Dedup(stream)}
}

func hashLibBasic(seed uint64, sz sizes) uint64 {
	h := newFNV()
	for _, e := range genLibBasic(seed, sz).stream {
		h.add(e.U)
		h.add(e.V)
	}
	return uint64(h)
}

// threeTasks runs the paper's three tasks on a fresh graph: insert the
// stream, HasEdge the stream, DeleteEdge every distinct edge. Calls are
// timed in blocks, each adding (traced) a span. afterInsert runs between
// the insert and the query phase, outside any timed window. It returns
// the round's stats and the time each of the three phases took.
func threeTasks(in libBasicInputs, r int, tr *tracer, afterInsert func(g *cuckoograph.Graph)) (rs roundStats, phases [3]time.Duration) {
	root := tr.begin(-1, r, layerBenchmark, "round")
	defer tr.end(root)
	g := cuckoograph.New()

	phase := func(k int, name string, edges []dataset.Edge, call func(e dataset.Edge) bool) {
		for lo := 0; lo < len(edges); lo += blockOps {
			blk := edges[lo:min(lo+blockOps, len(edges))]
			bad := int64(0)
			t0 := time.Now()
			for _, e := range blk {
				if !call(e) {
					bad++
				}
			}
			t1 := time.Now()
			d := t1.Sub(t0)
			phases[k] += d
			rs.failed += bad
			tr.add(root, r, layerCore, name, t0, t1)
		}
		rs.dur += phases[k]
		rs.ops += int64(len(edges))
		rs.attempted += int64(len(edges))
	}
	check := func(ok bool) {
		rs.attempted++
		if !ok {
			rs.failed++
		}
	}

	// An insert is right when it reports "new" exactly for the first
	// occurrence of an edge, so the count of "new" must equal the
	// generator's distinct count.
	fresh := 0
	phase(0, "InsertEdge", in.stream, func(e dataset.Edge) bool {
		if g.InsertEdge(e.U, e.V) {
			fresh++
		}
		return true
	})
	check(fresh == len(in.distinct))
	check(g.NumEdges() == uint64(len(in.distinct)))
	if afterInsert != nil {
		afterInsert(g)
	}
	phase(1, "HasEdge", in.stream, func(e dataset.Edge) bool { return g.HasEdge(e.U, e.V) })
	phase(2, "DeleteEdge", in.distinct, func(e dataset.Edge) bool { return g.DeleteEdge(e.U, e.V) })
	check(g.NumEdges() == 0)
	rs.lat = callLatency(rs.dur, rs.ops)
	return rs, phases
}

func buildLibBasic(seed uint64, sz sizes, _ string) (*system, error) {
	in := genLibBasic(seed, sz)
	sys := &system{shards: 1, close: func() {}}
	sys.round = func(r int, tr *tracer) roundStats {
		var base uint64
		if r == 0 {
			base = liveHeap()
		}
		rs, _ := threeTasks(in, r, tr, func(g *cuckoograph.Graph) {
			if r == 0 {
				sys.heapBytes, sys.heapEdges = heapDelta(base), g.NumEdges()
			}
		})
		return rs
	}
	return sys, nil
}

// ---- lib_chained_read ----

// Read-call kinds, packed into the low two bits of a chainedOp.
const (
	readHit chainedOp = iota
	readMiss
	readDegree
	readScan
)

// chainedOp packs kind (2 bits), source index and successor index.
type chainedOp uint32

// indexes unpacks the source and successor index of op.
func (op chainedOp) indexes() (i, j int) { return int(op>>2) & 0xffff, int(op >> 18) }

type chainedInputs struct {
	sources []uint64
	bases   []uint64 // per source, the base its successor ids derive from
	degree  int
	ops     []chainedOp
}

// successor j of source i. Multiplying by an odd constant permutes the
// 63-bit integers, so successors of one source are distinct; present
// successors are even and missing ones odd, so a miss can never be
// stored.
func (in *chainedInputs) successor(i, j int) uint64 {
	return ((in.bases[i] + uint64(j)) * 0x9E3779B97F4A7C15) << 1
}

// load inserts every source's successors into a fresh graph.
func (in *chainedInputs) load() *cuckoograph.Graph {
	g := cuckoograph.New()
	for i, u := range in.sources {
		for j := 0; j < in.degree; j++ {
			g.InsertEdge(u, in.successor(i, j))
		}
	}
	return g
}

// read issues one read call of the given kind for source i and successor
// j and reports whether the result was the expected one.
func (in *chainedInputs) read(g *cuckoograph.Graph, kind chainedOp, i, j int) bool {
	u := in.sources[i]
	switch kind {
	case readHit:
		return g.HasEdge(u, in.successor(i, j))
	case readMiss:
		return !g.HasEdge(u, in.successor(i, j)|1)
	case readDegree:
		return g.Degree(u) == in.degree
	default:
		n := 0
		g.ForEachSuccessor(u, func(uint64) bool { n++; return true })
		return n == in.degree
	}
}

func genChainedRead(seed uint64, sz sizes) *chainedInputs {
	rng := hashutil.NewRNG(seed ^ 0xc4a1ed)
	in := &chainedInputs{degree: sz.chainedDegree}
	seen := make(map[uint64]bool, sz.chainedSources)
	for len(in.sources) < sz.chainedSources {
		u := rng.Next()
		if seen[u] {
			continue
		}
		seen[u] = true
		in.sources = append(in.sources, u)
		in.bases = append(in.bases, rng.Next())
	}
	in.ops = make([]chainedOp, sz.chainedOps)
	for k := range in.ops {
		// 45 % hit, 33 % miss, 20 % degree, 2 % full scan.
		var kind chainedOp
		switch p := rng.Intn(100); {
		case p < 45:
			kind = readHit
		case p < 78:
			kind = readMiss
		case p < 98:
			kind = readDegree
		default:
			kind = readScan
		}
		i, j := rng.Intn(sz.chainedSources), rng.Intn(sz.chainedDegree)
		in.ops[k] = kind | chainedOp(i)<<2 | chainedOp(j)<<18
	}
	return in
}

func hashChainedRead(seed uint64, sz sizes) uint64 {
	in := genChainedRead(seed, sz)
	h := newFNV()
	for _, u := range in.sources {
		h.add(u)
	}
	for _, op := range in.ops {
		h.add(uint64(op))
	}
	return uint64(h)
}

func buildChainedRead(seed uint64, sz sizes, _ string) (*system, error) {
	if sz.chainedSources > 1<<16 || sz.chainedDegree > 1<<14 {
		return nil, fmt.Errorf("lib_chained_read: sizes do not fit a chainedOp")
	}
	in := genChainedRead(seed, sz)
	base := liveHeap()
	g := in.load()
	sys := &system{shards: 1, close: func() {}}
	sys.heapBytes, sys.heapEdges = heapDelta(base), g.NumEdges()
	want := uint64(len(in.sources) * in.degree)

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		root := tr.begin(-1, r, layerBenchmark, "round")
		defer tr.end(root)
		rs.attempted++
		if g.NumEdges() != want {
			rs.failed++
		}
		for lo := 0; lo < len(in.ops); lo += blockOps {
			blk := in.ops[lo:min(lo+blockOps, len(in.ops))]
			bad := int64(0)
			t0 := time.Now()
			for _, op := range blk {
				i, j := op.indexes()
				if !in.read(g, op&3, i, j) {
					bad++
				}
			}
			t1 := time.Now()
			d := t1.Sub(t0)
			rs.dur += d
			rs.failed += bad
			tr.add(root, r, layerCore, "read-mix", t0, t1)
		}
		rs.ops = int64(len(in.ops))
		rs.attempted += rs.ops
		rs.lat = callLatency(rs.dur, rs.ops)
		return rs
	}
	return sys, nil
}

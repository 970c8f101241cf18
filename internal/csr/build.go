package csr

import (
	"slices"
	"sync"
)

// scanPool recycles the per-partition scan buffers between builds. A
// buffer keeps the capacity of the largest partition it has held, so a
// warm build allocates only what the index itself retains; the collector
// empties the pool once it has sat idle for two cycles.
var scanPool = sync.Pool{New: func() any { return new(ShardScan) }}

// Build compiles s into an Index. The adjacency scans, the probe-heavy
// part, run one goroutine per partition, each into flat pooled buffers.
// The dictionary and the edge translation are one sequential pass over
// those buffers, so dense ids are deterministic for a given source:
// source nodes first, in partition-then-node order, then
// destination-only nodes in first-appearance order.
//
// Build only reads s, through ScanShard; how long a scan may keep a
// writer waiting is the source's contract (see sharded.View.ScanShard).
func Build(s Source) *Index {
	scans := make([]*ShardScan, s.ShardCount())
	succHint := int(s.NumEdges())/len(scans) + 16
	var wg sync.WaitGroup
	for si := range scans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scanPool.Get().(*ShardScan)
			sc.Succs = slices.Grow(sc.Succs[:0], succHint) // a cold buffer's first guess
			s.ScanShard(si, sc)
			scans[si] = sc
		}()
	}
	wg.Wait()

	nsrc, total := 0, 0
	for _, sc := range scans {
		nsrc += len(sc.Nodes)
		total += len(sc.Succs)
	}
	// Most destinations are sources too: room for an eighth more nodes
	// than sources covers the rest without a regrowth on web-like graphs,
	// and both structures grow when it does not.
	hint := nsrc + nsrc/8
	x := &Index{
		ids:   make([]uint64, 0, hint),
		dense: newDict(hint),
		srcs:  int32(nsrc),
		edges: make([]int32, 0, total),
	}
	for _, sc := range scans {
		for _, u := range sc.Nodes {
			x.intern(u)
		}
	}
	for _, sc := range scans {
		for _, v := range sc.Succs {
			x.edges = append(x.edges, x.intern(v))
		}
	}
	// Sources' ranges are the running sum of the counts; every
	// destination-only node behind them carries the empty range at the end.
	x.offsets = make([]uint32, len(x.ids)+1)
	i, off := 0, uint32(0)
	for _, sc := range scans {
		for _, n := range sc.Counts {
			x.offsets[i] = off
			off += uint32(n)
			i++
		}
		scanPool.Put(sc)
	}
	for ; i < len(x.offsets); i++ {
		x.offsets[i] = off
	}
	return x
}

// intern resolves v's dense id, assigning the next one when v appears
// for the first time.
func (x *Index) intern(v uint64) int32 {
	d := x.dense.intern(v, int32(len(x.ids)))
	if int(d) == len(x.ids) {
		x.ids = append(x.ids, v)
	}
	return d
}

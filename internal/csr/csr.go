// Package csr compiles a frozen graph into a compressed-sparse-row
// index: a node-id dictionary mapping the graph's sparse uint64 ids to
// dense int32s (an array one way, an open-addressed table the other), an
// offsets array, and one flat edge array holding every adjacency back to
// back in dense-id space. Three kernels of internal/analytics — BFS,
// PageRank and ConnectedComponents — detect the index (via
// graphstore.Indexed) and run over flat slices instead of hash probes
// and map allocations — the difference between a
// pointer-chasing traversal and a memory-bandwidth one. The index holds
// no Go map and no pointer below its slice headers: nothing in it for the
// collector to walk.
//
// The index is immutable: it is built once from a consistent frozen
// view (internal/sharded memoizes it per snapshot epoch) and shared by
// every reader. Build never mutates its source; it reads it partition by
// partition through Source.ScanShard, into pooled buffers, so compiling
// an epoch allocates what the index keeps and nothing else.
package csr

// Source is what Build compiles: a graph frozen at one epoch whose node
// set is hash-partitioned (in practice a sharded engine's frozen view).
type Source interface {
	NumEdges() uint64
	// ShardCount returns the number of partitions.
	ShardCount() int
	// ScanShard replaces sc's contents with partition si, reusing the
	// slices' capacity. Build calls it for different partitions from
	// different goroutines.
	ScanShard(si int, sc *ShardScan)
}

// ShardScan is one partition of a Source laid out flat: its nodes (those
// with at least one out-edge) in the source's iteration order, each
// node's out-degree, and every node's successors back to back in that
// same order, so that Counts delimits the per-node runs of Succs.
type ShardScan struct {
	Nodes  []uint64
	Counts []int32
	Succs  []uint64
}

// Index is the compiled CSR form of a graph. Dense ids are assigned so
// that every node with at least one out-edge ("source node") occupies
// [0, NumSources) in the source's node-iteration order, followed by
// nodes that only ever appear as successors; Succ(i) for i ≥ NumSources
// is empty. A node's successors keep the order ScanShard reported them
// in (a view's ForEachSuccessor order), so a traversal over the index
// visits edges in exactly the order the fallback path would.
type Index struct {
	// ids maps dense id -> sparse node id.
	ids []uint64
	// dense maps sparse node id -> dense id. Read-only after Build.
	dense dict
	// srcs is the number of source nodes: dense ids < srcs have
	// out-edges, ids ≥ srcs are destination-only.
	srcs int32
	// offsets has len NumNodes+1; node i's successors are
	// edges[offsets[i]:offsets[i+1]].
	offsets []uint32
	// edges holds every successor as a dense id, per-node in the
	// source's scan order.
	edges []int32
}

// NumNodes returns the number of distinct nodes (sources plus
// destination-only).
func (x *Index) NumNodes() int { return len(x.ids) }

// NumSources returns the number of nodes with at least one out-edge;
// they occupy dense ids [0, NumSources).
func (x *Index) NumSources() int { return int(x.srcs) }

// NumEdges returns the number of edges in the index.
func (x *Index) NumEdges() int { return len(x.edges) }

// DenseOf resolves a sparse node id to its dense id.
func (x *Index) DenseOf(u uint64) (int32, bool) { return x.dense.get(u) }

// IDOf resolves a dense id back to the sparse node id.
func (x *Index) IDOf(d int32) uint64 { return x.ids[d] }

// Degree returns dense node d's out-degree.
func (x *Index) Degree(d int32) int {
	return int(x.offsets[d+1] - x.offsets[d])
}

// Succ returns dense node d's successors as a shared slice the caller
// must not mutate.
func (x *Index) Succ(d int32) []int32 {
	return x.edges[x.offsets[d]:x.offsets[d+1]]
}

// Edges returns the whole edge array, every node's Succ back to back in
// dense-id order, as a shared slice the caller must not mutate.
func (x *Index) Edges() []int32 { return x.edges }

// MemoryBytes returns the structural bytes of the index: the sparse id
// array, the dictionary table at its real capacity (12 bytes a slot),
// offsets and edges: the price of keeping one epoch compiled.
func (x *Index) MemoryBytes() uint64 {
	return uint64(len(x.ids))*8 + uint64(len(x.dense.keys))*12 +
		uint64(len(x.offsets)+len(x.edges))*4
}

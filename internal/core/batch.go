package core

// Batched mutations. Real edge streams arrive in bursts, and the
// per-edge cost of the mutation path is dominated by work that repeats
// per source node: the Part-1 L-CHT probe that locates u's cell. A
// Batch applies its ops in exactly the order given — so a batch is
// semantically identical to replaying the same ops one by one, down to
// the physical structure and every Stats counter — while the engine
// amortizes cell lookups across the batch with a direct-mapped cell
// cache that is flushed only when an op restructures the L-CHT.
//
// Order preservation is a deliberate contract, not an accident: it is
// what lets the WAL log a whole batch as one record and replay it back
// op by op, and what makes the batch/single equivalence property
// testable at the level of full structural Stats.

import "cuckoograph/internal/hashutil"

// OpKind says what a mutation op does. The values are stable: the WAL's
// on-disk batch records and the wire protocol reuse them.
type OpKind uint8

const (
	// OpInsert adds the edge ⟨u,v⟩ (for the weighted variant: one
	// occurrence of it).
	OpInsert OpKind = 1
	// OpDelete removes the edge ⟨u,v⟩ (for the weighted variant: one
	// occurrence of it).
	OpDelete OpKind = 2
)

// Op is one edge mutation.
type Op struct {
	Kind OpKind
	U, V uint64
}

// InsertOp returns an insert mutation for ⟨u,v⟩.
func InsertOp(u, v uint64) Op { return Op{Kind: OpInsert, U: u, V: v} }

// DeleteOp returns a delete mutation for ⟨u,v⟩.
func DeleteOp(u, v uint64) Op { return Op{Kind: OpDelete, U: u, V: v} }

// Batch is an ordered sequence of mutations, applied front to back.
type Batch []Op

// Insert appends an insert op and returns the extended batch.
func (b Batch) Insert(u, v uint64) Batch { return append(b, InsertOp(u, v)) }

// Delete appends a delete op and returns the extended batch.
func (b Batch) Delete(u, v uint64) Batch { return append(b, DeleteOp(u, v)) }

// BatchResult summarises what a batch changed.
type BatchResult struct {
	// Inserted counts ops that created a new edge.
	Inserted uint64
	// Deleted counts ops that removed an edge from the structure.
	Deleted uint64
	// Updated counts ops that modified an existing edge's payload in
	// place: weighted duplicate inserts (weight +1) and weighted deletes
	// that decremented without reaching zero. Always zero for the basic
	// variant, whose duplicate inserts are no-ops.
	Updated uint64
}

// Applied is the number of ops that changed the graph at all.
func (r BatchResult) Applied() uint64 { return r.Inserted + r.Deleted + r.Updated }

// Chunker accumulates ops and hands them to apply in fixed-size
// batches — the shared loop of every bulk-ingestion path (snapshot
// load, WAL replay, benchmark loaders). Call Flush when the stream
// ends; the backing array is reused across flushes, so apply must not
// retain the batch.
type Chunker struct {
	batch Batch
	apply func(Batch)
}

// NewChunker returns a Chunker flushing every size ops.
func NewChunker(size int, apply func(Batch)) *Chunker {
	if size < 1 {
		size = 1
	}
	return &Chunker{batch: make(Batch, 0, size), apply: apply}
}

// Add queues one op, flushing if the chunk is full.
func (c *Chunker) Add(op Op) {
	c.batch = append(c.batch, op)
	if len(c.batch) == cap(c.batch) {
		c.Flush()
	}
}

// Insert queues an insert op.
func (c *Chunker) Insert(u, v uint64) { c.Add(InsertOp(u, v)) }

// Delete queues a delete op.
func (c *Chunker) Delete(u, v uint64) { c.Add(DeleteOp(u, v)) }

// Flush applies whatever is queued; a no-op when empty.
func (c *Chunker) Flush() {
	if len(c.batch) > 0 {
		c.apply(c.batch)
		c.batch = c.batch[:0]
	}
}

// batchCacheBits sizes applyBatch's direct-mapped Part-1 cache. 256
// entries (6 KiB of stack) covers the hot-node working set of a skewed
// stream while staying cheap to flush on invalidation.
const (
	batchCacheBits = 8
	batchCacheSize = 1 << batchCacheBits
)

// applyBatch is the engine's one mutation path: the exported single-op
// methods wrap it with a stack-allocated size-1 batch. Ops apply in
// order; `one` is the payload stored for a newly created edge. The two
// hooks supply variant semantics for ops that hit an existing edge:
// onDup (insert on a present edge) and onDel (delete on a present edge,
// returning whether the edge must be physically removed — false means
// it mutated the payload in place instead). A nil onDup makes duplicate
// inserts no-ops; a nil onDel always removes. before and onApplied, when
// non-nil, observe exactly the ops that physically insert or delete an
// edge, in order: before (see preImage) ahead of the change, onApplied
// after it — the sharded layer's copy-on-write and its WAL batch record.
func (e *engine[W]) applyBatch(b Batch, one W, onDup, onDel func(*W) bool, before func(u uint64, deg int) []uint64, onApplied func(Op)) BatchResult {
	var res BatchResult
	switch len(b) {
	case 0:
	case 1:
		// A size-1 batch — every single-op wrapper — skips the cell
		// cache: it could never get a second hit, and keeping the cache
		// arrays out of this function's frame keeps the hot single-op
		// path free of their ~4.5 KiB of stack zeroing (declared
		// unconditionally here, the compiler zeroes them per call even
		// on the size-1 path).
		hu := hashutil.Key64(b[0].U)
		e.applyOp(b[0], hu, e.findPart2(hu, b[0].U), one, onDup, onDel, before, onApplied, &res)
	default:
		res = e.applyBatchCached(b, one, onDup, onDel, before, onApplied)
	}
	return res
}

// applyBatchCached is the multi-op body of applyBatch, with the Part-1
// cache: a small direct-mapped table of u → cell pointer that amortizes
// the L-CHT probe across a batch — the hot nodes of a skewed stream
// recur every few ops, so most ops hit. Entries are pointers into the
// L-CHT (or L-DL) and stay valid only while no op restructures those
// tables: a cell insertion (kicks can relocate any cell, growth
// rebuilds tables) or a node removal (ditto, plus L-DL appends that may
// reallocate) flushes the cache. Everything else on the mutation path —
// the S-CHT chains, the S-DL, inline slots — lives outside the L-CHT.
// Direct mapping beats a per-node map: the probe being amortized is
// itself only a couple of bucket reads, so a Go map lookup would cost
// as much as it saves.
func (e *engine[W]) applyBatchCached(b Batch, one W, onDup, onDel func(*W) bool, before func(u uint64, deg int) []uint64, onApplied func(Op)) BatchResult {
	var res BatchResult
	var (
		cacheU [batchCacheSize]uint64
		cacheP [batchCacheSize]*part2[W]
		cached [batchCacheSize]bool
	)
	for _, op := range b {
		var p *part2[W]
		// One Key64 per op serves both the cache index (top bits) and,
		// on a miss, the L-CHT probe itself — the hash is never
		// recomputed downstream.
		hu := hashutil.Key64(op.U)
		idx := hu >> (64 - batchCacheBits)
		if cached[idx] && cacheU[idx] == op.U {
			p = cacheP[idx]
		} else {
			p = e.findPart2(hu, op.U)
			cacheU[idx], cacheP[idx], cached[idx] = op.U, p, true
		}
		if e.applyOp(op, hu, p, one, onDup, onDel, before, onApplied, &res) {
			cached = [batchCacheSize]bool{}
		}
	}
	return res
}

// applyOp applies one op given u's hash and already-resolved cell (nil
// for an unknown u), reporting whether the L-CHT or L-DL was
// restructured — which invalidates any cached cell pointers, including
// p itself. One probe serves the duplicate check and the mutation: the
// insert places with the hash the probe computed, the delete clears the
// cell the probe found; and before runs on its verdict, never on a guess.
func (e *engine[W]) applyOp(op Op, hu uint64, p *part2[W], one W, onDup, onDel func(*W) bool, before func(u uint64, deg int) []uint64, onApplied func(Op), res *BatchResult) bool {
	w, at, hv := e.find(p, op.U, op.V)
	switch op.Kind {
	case OpInsert:
		if w != nil {
			if onDup != nil && onDup(w) {
				res.Updated++
			}
			return false
		}
		if before != nil {
			e.preImage(before, p, op.U)
		}
		e.insertAt(hu, p, op.U, hv, slot[W]{v: op.V, w: one})
		res.Inserted++
		if onApplied != nil {
			onApplied(op)
		}
		// A brand-new cell went through insertCell, which may have
		// kicked, spilled or grown the L-CHT.
		return p == nil
	case OpDelete:
		if w == nil {
			return false
		}
		if onDel != nil && !onDel(w) {
			res.Updated++
			return false
		}
		if before != nil {
			e.preImage(before, p, op.U)
		}
		restructured := e.deleteAt(hu, p, op.U, at)
		res.Deleted++
		if onApplied != nil {
			onApplied(op)
		}
		return restructured
	}
	// Unknown kinds are ignored: the decoders that produce batches
	// (WAL replay, the wire protocol) reject them before this point.
	return false
}

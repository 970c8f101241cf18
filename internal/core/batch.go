package core

// Batched mutations. Real edge streams arrive in bursts, and a Batch
// applies its ops in exactly the order given — so a batch is
// semantically identical to replaying the same ops one by one, down to
// the physical structure and every Stats counter. What a batch saves is
// paid above the engine: one lock acquisition, one WAL record and one
// commit per batch instead of per op. Inside the engine every op costs
// the same one probe whether it arrives alone or in a batch; the L-CHT
// probe for u's cell is a couple of bucket reads, and no state is
// carried from one op to the next.
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

// applyBatch is the engine's one mutation path: the exported single-op
// methods wrap it with a stack-allocated size-1 batch. Ops apply in
// order, each with one Key64 of its u, one L-CHT probe for u's cell and
// one applyOp; `one` is the payload stored for a newly created edge. The
// two hooks supply variant semantics for ops that hit an existing edge:
// onDup (insert on a present edge) and onDel (delete on a present edge,
// returning whether the edge must be physically removed — false means
// it mutated the payload in place instead). A nil onDup makes duplicate
// inserts no-ops; a nil onDel always removes. before and onApplied, when
// non-nil, observe exactly the ops that physically insert or delete an
// edge, in order: before (see preImage) ahead of the change, onApplied
// after it — the sharded layer's copy-on-write and its WAL batch record.
func (e *engine[W]) applyBatch(b Batch, one W, onDup, onDel func(*W) bool, before func(u uint64, deg int) []uint64, onApplied func(Op)) BatchResult {
	var res BatchResult
	for _, op := range b {
		hu := hashutil.Key64(op.U)
		e.applyOp(op, hu, e.findPart2(hu, op.U), one, onDup, onDel, before, onApplied, &res)
	}
	return res
}

// applyOp applies one op given u's hash and already-resolved row (nil
// for an unknown u). One probe serves the duplicate check and the
// mutation: the insert places with the hash the probe computed, the
// delete clears the cell the probe found; and before runs on its verdict,
// never on a guess.
func (e *engine[W]) applyOp(op Op, hu uint64, row []slot[W], one W, onDup, onDel func(*W) bool, before func(u uint64, deg int) []uint64, onApplied func(Op), res *BatchResult) {
	w, at, hv := e.find(row, op.U, op.V)
	switch op.Kind {
	case OpInsert:
		if w != nil {
			if onDup != nil && onDup(w) {
				res.Updated++
			}
			return
		}
		if before != nil {
			e.preImage(before, row, op.U)
		}
		e.insertAt(hu, row, op.U, hv, slot[W]{v: op.V, w: one})
		res.Inserted++
	case OpDelete:
		if w == nil {
			return
		}
		if onDel != nil && !onDel(w) {
			res.Updated++
			return
		}
		if before != nil {
			e.preImage(before, row, op.U)
		}
		e.deleteAt(hu, row, op.U, at)
		res.Deleted++
	default:
		// Unknown kinds are ignored: the decoders that produce batches
		// (WAL replay, the wire protocol) reject them before this point.
		return
	}
	if onApplied != nil {
		onApplied(op)
	}
}

package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// durBatchOps is the batch size of durable_ingest: 256 inserts, each
// followed by the delete of the oldest live edge.
const durBatchOps = 512

// walPolicy is the flush policy of every WAL the benchmark opens. It is
// fixed: nosync writes each group commit without fsync, so the numbers
// are bound by the program, not by the sandbox's disk.
const walPolicy = wal.SyncNone

// windowGen generates a sliding window of live edges over power-law
// sources. Every inserted edge is new (its destination is the insertion
// counter) and every delete removes the oldest live edge, so no
// operation ever fails and the live set is exactly the ring.
type windowGen struct {
	rng   *hashutil.RNG
	nodes uint64
	ring  []core.Op // live edges, oldest at head
	head  int
	next  uint64 // insertion counter
}

func newWindowGen(seed uint64, nodes, window int) *windowGen {
	return &windowGen{rng: hashutil.NewRNG(seed ^ 0xd07ab1e), nodes: uint64(nodes), ring: make([]core.Op, 0, window)}
}

// source draws a power-law source: the cube of a uniform draw
// concentrates about 1 % of the edges on the busiest node.
func (w *windowGen) source() uint64 {
	x := w.rng.Float64()
	return uint64(float64(w.nodes) * x * x * x)
}

func (w *windowGen) insert() core.Op {
	op := core.InsertOp(w.source(), w.next)
	w.next++
	return op
}

// fill appends one batch to b: inserts while the window is filling, and
// insert/delete-oldest pairs once it is full.
func (w *windowGen) fill(b core.Batch) core.Batch {
	for len(b) < durBatchOps {
		op := w.insert()
		b = append(b, op)
		if len(w.ring) < cap(w.ring) {
			w.ring = append(w.ring, op)
			continue
		}
		old := w.ring[w.head]
		w.ring[w.head] = op
		w.head = (w.head + 1) % len(w.ring)
		b = append(b, core.DeleteOp(old.U, old.V))
	}
	return b
}

func hashDurableIngest(seed uint64, sz sizes) uint64 {
	w := newWindowGen(seed, sz.durNodes, sz.durWindow)
	h := newFNV()
	var b core.Batch
	for i := 0; i < sz.durWindow/durBatchOps+8; i++ {
		b = w.fill(b[:0])
		for _, op := range b {
			h.add(uint64(op.Kind))
			h.add(op.U)
			h.add(op.V)
		}
	}
	return uint64(h)
}

// spanLogger wraps a sharded.Logger so the WAL's LogBatch shows up as a
// span inside the sharded.ApplyBatch span that caused it. ApplyBatch may
// fan a batch out across shards, so LogBatch can run on several
// goroutines at once; parent is set by the caller before ApplyBatch.
type spanLogger struct {
	inner  sharded.Logger
	tr     *tracer
	parent atomic.Int32
	round  atomic.Int32
}

func (l *spanLogger) LogBatch(b core.Batch) error {
	if l.tr == nil {
		return l.inner.LogBatch(b)
	}
	t0 := time.Now()
	err := l.inner.LogBatch(b)
	l.tr.add(l.parent.Load(), int(l.round.Load()), layerWAL, "LogBatch", t0, time.Now())
	return err
}

func buildDurableIngest(seed uint64, sz sizes, dir string) (*system, error) {
	gen := newWindowGen(seed, sz.durNodes, sz.durWindow)
	base := liveHeap()
	w, err := wal.Open(dir, wal.Options{Sync: walPolicy})
	if err != nil {
		return nil, fmt.Errorf("durable_ingest: %w", err)
	}
	logger := &spanLogger{inner: w}
	g := sharded.New(sharded.Config{Shards: inProcShards, WAL: logger})
	batch := make(core.Batch, 0, durBatchOps)
	for len(gen.ring) < cap(gen.ring) {
		batch = gen.fill(batch[:0])
		g.ApplyBatch(batch)
	}
	sys := &system{shards: g.Shards(), extra: map[string]metric{}}
	sys.heapBytes, sys.heapEdges = heapDelta(base), g.NumEdges()
	closed := false
	sys.close = func() {
		if !closed {
			w.Close()
		}
	}

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		rs.lat = make([]float64, 0, sz.durBatches)
		logger.tr = tr
		logger.round.Store(int32(r))
		root := tr.begin(-1, r, layerBenchmark, "round")
		before := w.Stats()
		start := time.Now()
		for i := 0; i < sz.durBatches; i++ {
			batch = gen.fill(batch[:0])
			t0 := time.Now()
			if tr != nil {
				logger.parent.Store(tr.add(root, r, layerSharded, "ApplyBatch", t0, t0))
			}
			res := g.ApplyBatch(batch)
			t1 := time.Now()
			tr.end(logger.parent.Load())
			rs.lat = append(rs.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
			if res.Inserted != durBatchOps/2 || res.Deleted != durBatchOps/2 {
				rs.failed++
			}
		}
		end := time.Now()
		tr.end(root)
		rs.dur = end.Sub(start)
		after := w.Stats()
		// A checkpoint between rounds bounds replay and prunes the log. It
		// is outside the timed window: it fsyncs the snapshot and the
		// directory whatever the flush policy, and on an 8192-edge graph
		// that wait for the sandbox's disk is all it costs (a fifth of a
		// round, and several times that while a neighbour keeps the disk
		// busy). wal.checkpoint_ms of the layer probes times one.
		_, cerr := wal.Checkpoint(g, w)
		sys.extra["checkpoint_ms"] = metric{float64(time.Since(end).Nanoseconds()) / 1e6, "ms"}
		rs.walBytes, rs.walOps = after.Bytes-before.Bytes, after.Ops-before.Ops
		rs.ops = int64(sz.durBatches * durBatchOps)
		rs.attempted = int64(sz.durBatches) + 3
		if cerr != nil {
			rs.failed++
		}
		if g.LogErr() != nil {
			rs.failed++
		}
		if g.NumEdges() != uint64(len(gen.ring)) {
			rs.failed++
		}
		return rs
	}

	// finish closes the log, recovers the directory into a second graph
	// and compares it with the live one.
	sys.finish = func() (attempted, failed int64) {
		check := func(ok bool) {
			attempted++
			if !ok {
				failed++
			}
		}
		// A short tail after the last checkpoint, so recovery replays
		// log records as well as loading the snapshot.
		for i := 0; i < 64; i++ {
			batch = gen.fill(batch[:0])
			g.ApplyBatch(batch)
		}
		closed = true
		check(w.Close() == nil)
		t0 := time.Now()
		rec, st, err := wal.Recover(dir, sharded.Config{})
		el := time.Since(t0)
		if err != nil {
			check(false)
			return
		}
		sys.extra["recover_s"] = metric{el.Seconds(), "s"}
		sys.extra["wal.replay_records"] = metric{float64(st.Replay.Records), "count"}
		check(rec.NumEdges() == g.NumEdges())
		check(rec.NumNodes() == g.NumNodes())
		rng := hashutil.NewRNG(seed ^ 0x5a3b1e)
		for i := 0; i < sz.durSampleEdge; i++ {
			live := gen.ring[rng.Intn(len(gen.ring))]
			check(rec.HasEdge(live.U, live.V) && g.HasEdge(live.U, live.V))
			// Destinations below the oldest live one were all deleted.
			oldest := gen.ring[gen.head].V
			gone := rng.Uint64n(oldest)
			check(!rec.HasEdge(live.U, gone) && !g.HasEdge(live.U, gone))
		}
		return
	}
	return sys, nil
}

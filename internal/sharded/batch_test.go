package sharded

import (
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
)

// TestApplyBatchMatchesSingleOps: a batch partitioned across shards
// must leave the same logical graph and aggregate counters as the same
// ops applied one by one.
func TestApplyBatchMatchesSingleOps(t *testing.T) {
	rng := hashutil.NewRNG(7)
	var ops core.Batch
	for i := 0; i < 8000; i++ {
		u, v := rng.Uint64n(512), rng.Uint64n(512)
		if rng.Uint64n(10) < 3 {
			ops = ops.Delete(u, v)
		} else {
			ops = ops.Insert(u, v)
		}
	}

	single := New(Config{Shards: 8})
	for _, op := range ops {
		if op.Kind == core.OpInsert {
			single.InsertEdge(op.U, op.V)
		} else {
			single.DeleteEdge(op.U, op.V)
		}
	}

	batched := New(Config{Shards: 8})
	for lo := 0; lo < len(ops); lo += 1024 {
		hi := min(lo+1024, len(ops))
		batched.ApplyBatch(ops[lo:hi])
	}

	if single.NumEdges() != batched.NumEdges() || single.NumNodes() != batched.NumNodes() {
		t.Fatalf("batched graph has %d edges / %d nodes, single-op has %d / %d",
			batched.NumEdges(), batched.NumNodes(), single.NumEdges(), single.NumNodes())
	}
	missing := 0
	single.ForEachNode(func(u uint64) bool {
		single.ForEachSuccessor(u, func(v uint64) bool {
			if !batched.HasEdge(u, v) {
				missing++
			}
			return true
		})
		return true
	})
	if missing > 0 {
		t.Fatalf("%d edges of the single-op graph missing from the batched graph", missing)
	}
}

// TestApplyBatchResultAndCounters pins the result accounting and the
// counts it leaves.
func TestApplyBatchResultAndCounters(t *testing.T) {
	g := New(Config{Shards: 4})
	res := g.ApplyBatch(core.Batch{}.
		Insert(1, 2).Insert(2, 3).Insert(1, 2). // one duplicate
		Delete(2, 3).Delete(5, 5))              // one absent
	want := core.BatchResult{Inserted: 2, Deleted: 1}
	if res != want {
		t.Fatalf("BatchResult = %+v, want %+v", res, want)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 1 {
		t.Fatalf("counters = %d edges / %d nodes, want 1 / 1", g.NumEdges(), g.NumNodes())
	}
}

// TestApplyBatchEmpty: the degenerate cases must not lock anything up.
func TestApplyBatchEmpty(t *testing.T) {
	g := New(Config{Shards: 4})
	if res := g.ApplyBatch(nil); res != (core.BatchResult{}) {
		t.Fatalf("ApplyBatch(nil) = %+v", res)
	}
	if res := g.ApplyBatch(core.Batch{}); res != (core.BatchResult{}) {
		t.Fatalf("ApplyBatch(empty) = %+v", res)
	}
}

// TestApplyBatchLogsAppliedSubBatch: the Logger must see exactly the
// state-changing ops of each partition, batched per shard, with
// per-node order preserved.
func TestApplyBatchLogsAppliedSubBatch(t *testing.T) {
	rec := &walRecorder{}
	g := New(Config{Shards: 4, WAL: rec})
	g.ApplyBatch(core.Batch{}.
		Insert(1, 2).
		Insert(1, 2). // duplicate: must not be logged
		Insert(1, 3).
		Delete(1, 2).
		Delete(9, 9)) // absent: must not be logged

	rec.mu.Lock()
	got := append([][3]uint64(nil), rec.ops...)
	rec.mu.Unlock()
	// Node 1's ops share a shard, so their relative order is fixed even
	// though shards log concurrently.
	want := [][3]uint64{{0, 1, 2}, {0, 1, 3}, {1, 1, 2}}
	if len(got) != len(want) {
		t.Fatalf("logged %v, want %v", got, want)
	}
	var seq [][3]uint64
	for _, op := range got {
		if op[1] == 1 {
			seq = append(seq, op)
		}
	}
	for i, op := range seq {
		if op != want[i] {
			t.Fatalf("node-1 log order %v, want %v", seq, want)
		}
	}
}

// TestConcurrentApplyBatch hammers ApplyBatch from several goroutines
// (disjoint key ranges so the final state is deterministic) under the
// race detector, checking the counts summed from the shards survive
// concurrent partitions.
func TestConcurrentApplyBatch(t *testing.T) {
	g := New(Config{Shards: 8})
	const (
		workers = 8
		perW    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 1_000_000
			var b core.Batch
			for i := uint64(0); i < perW; i++ {
				b = b.Insert(base+i%512, base+i)
				if len(b) == 256 {
					g.ApplyBatch(b)
					b = b[:0]
				}
			}
			g.ApplyBatch(b)
		}(w)
	}
	wg.Wait()
	if g.NumEdges() != workers*perW {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), workers*perW)
	}
	// Cross-check the summed counts against Stats' merge.
	st := g.Stats()
	if st.Edges != g.NumEdges() || st.Nodes != g.NumNodes() {
		t.Fatalf("aggregate counters (%d edges, %d nodes) disagree with Stats (%d, %d)",
			g.NumEdges(), g.NumNodes(), st.Edges, st.Nodes)
	}
}

// TestConcurrentBatchAndSingleMixed interleaves batched and single-op
// mutations with readers — the upgrade-path scenario a live server
// sees — and verifies nothing deadlocks and counters stay consistent.
func TestConcurrentBatchAndSingleMixed(t *testing.T) {
	g := New(Config{Shards: 8})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.HasEdge(1, 2)
			g.Degree(1)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 1_000_000
			for i := uint64(0); i < 2000; i++ {
				if i%2 == 0 {
					g.InsertEdge(base+i, base+i+1)
				} else {
					g.ApplyBatch(core.Batch{}.Insert(base+i, base+i+1).Delete(base+i-1, base+i))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	st := g.Stats()
	if st.Edges != g.NumEdges() {
		t.Fatalf("aggregate edges %d disagree with Stats %d", g.NumEdges(), st.Edges)
	}
}

package sharded

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cuckoograph/internal/core"
)

// refModel is the plain-map reference the differential test checks the
// engine against: the ground-truth edge set after a prefix of the op
// stream.
type refModel map[uint64]map[uint64]struct{}

func (m refModel) apply(b core.Batch) {
	for _, op := range b {
		switch op.Kind {
		case core.OpInsert:
			s := m[op.U]
			if s == nil {
				s = make(map[uint64]struct{})
				m[op.U] = s
			}
			s[op.V] = struct{}{}
		case core.OpDelete:
			if s := m[op.U]; s != nil {
				delete(s, op.V)
				if len(s) == 0 {
					delete(m, op.U)
				}
			}
		}
	}
}

// freeze deep-copies the model into sorted adjacency slices — the shape
// the verifier compares views against.
func (m refModel) freeze() (map[uint64][]uint64, uint64) {
	out := make(map[uint64][]uint64, len(m))
	var edges uint64
	for u, s := range m {
		succ := make([]uint64, 0, len(s))
		for v := range s {
			succ = append(succ, v)
		}
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		out[u] = succ
		edges += uint64(len(succ))
	}
	return out, edges
}

// verifyView asserts v is bit-identical to the frozen model state at
// its epoch: same counters, same node set, same adjacency per node, and
// negative point queries for edges the model lacks. It is safe to call
// from multiple goroutines while the graph keeps mutating.
func verifyView(t *testing.T, v *View, model map[uint64][]uint64, edges uint64, nodeSpace, valSpace uint64, rng *rand.Rand) {
	t.Helper()
	if got := v.NumNodes(); got != uint64(len(model)) {
		t.Errorf("epoch %d: NumNodes = %d, model has %d", v.Epoch(), got, len(model))
		return
	}
	if got := v.NumEdges(); got != edges {
		t.Errorf("epoch %d: NumEdges = %d, model has %d", v.Epoch(), got, edges)
		return
	}
	var nodes []uint64
	v.ForEachNode(func(u uint64) bool {
		nodes = append(nodes, u)
		return true
	})
	if len(nodes) != len(model) {
		t.Errorf("epoch %d: iterated %d nodes, model has %d", v.Epoch(), len(nodes), len(model))
		return
	}
	for _, u := range nodes {
		want, ok := model[u]
		if !ok {
			t.Errorf("epoch %d: view has node %d the model lacks", v.Epoch(), u)
			return
		}
		got := append([]uint64(nil), v.Successors(u)...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Errorf("epoch %d: node %d has %d successors, model %d", v.Epoch(), u, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("epoch %d: node %d adjacency %v, model %v", v.Epoch(), u, got, want)
				return
			}
		}
	}
	// Random negative and positive point probes.
	for i := 0; i < 32; i++ {
		u, x := rng.Uint64()%nodeSpace, rng.Uint64()%valSpace
		want := false
		if succ, ok := model[u]; ok {
			j := sort.Search(len(succ), func(k int) bool { return succ[k] >= x })
			want = j < len(succ) && succ[j] == x
		}
		if got := v.HasEdge(u, x); got != want {
			t.Errorf("epoch %d: HasEdge(%d,%d) = %v, model says %v", v.Epoch(), u, x, got, want)
			return
		}
	}
}

// TestDifferentialSnapshotsUnderMutation is the model-based
// differential test of the snapshot subsystem: a random op stream is
// applied batch by batch to the sharded engine and to a plain-map
// reference model; snapshots are taken at random points, paired with a
// deep copy of the model at that instant, and every live view is
// verified continuously — by concurrent goroutines, while the mutation
// stream keeps running — to stay bit-identical to the model state at
// its epoch. At steady state six views are live at once (≥4, per the
// acceptance criterion), and the one released to make room is drawn at
// random. Run it with -race: the verifiers' reads of
// live shards and frozen overlays race against writers by design, and
// the locking discipline has to hold.
func TestDifferentialSnapshotsUnderMutation(t *testing.T) {
	const (
		nodeSpace = 96 // small spaces force constant re-touching of frozen cells
		valSpace  = 64
		rounds    = 240
		batchMax  = 192
		maxLive   = 6
	)
	g := New(Config{Shards: 8})
	model := make(refModel)
	rng := rand.New(rand.NewSource(7))

	type liveView struct {
		view  *View
		model map[uint64][]uint64
		edges uint64
		stop  chan struct{}
		done  chan struct{}
	}
	var live []*liveView

	spawn := func() *liveView {
		frozen, edges := model.freeze()
		lv := &liveView{
			view:  g.Snapshot(),
			model: frozen,
			edges: edges,
			stop:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		seed := rng.Int63()
		go func() {
			defer close(lv.done)
			vrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-lv.stop:
					return
				default:
					verifyView(t, lv.view, lv.model, lv.edges, nodeSpace, valSpace, vrng)
				}
			}
		}()
		return lv
	}
	release := func(lv *liveView) {
		close(lv.stop)
		<-lv.done
		lv.view.Release()
	}

	var readers sync.WaitGroup
	stopReaders := make(chan struct{})
	// Background point-readers on the live graph, so view reads, live
	// reads and writes all overlap.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopReaders:
					return
				default:
					g.HasEdge(rrng.Uint64()%nodeSpace, rrng.Uint64()%valSpace)
				}
			}
		}(int64(100 + i))
	}

	for r := 0; r < rounds; r++ {
		n := 1 + rng.Intn(batchMax)
		b := make(core.Batch, 0, n)
		for i := 0; i < n; i++ {
			u, v := rng.Uint64()%nodeSpace, rng.Uint64()%valSpace
			if rng.Intn(3) == 0 {
				b = b.Delete(u, v)
			} else {
				b = b.Insert(u, v)
			}
		}
		g.ApplyBatch(b)
		model.apply(b)

		if r%20 == 0 || rng.Intn(40) == 0 {
			live = append(live, spawn())
			if len(live) > maxLive {
				// Any view, not just the oldest: a middle or the newest
				// one released while older ones still share its
				// pre-images must leave them exact.
				j := rng.Intn(len(live))
				release(live[j])
				live = slices.Delete(live, j, j+1)
			}
		}
	}
	if len(live) < 4 {
		t.Fatalf("only %d live views at end of stream, want ≥4", len(live))
	}
	// Final ground-truth check of the live graph itself.
	frozen, edges := model.freeze()
	if g.NumEdges() != edges || g.NumNodes() != uint64(len(frozen)) {
		t.Fatalf("live graph %d edges/%d nodes, model %d/%d",
			g.NumEdges(), g.NumNodes(), edges, len(frozen))
	}
	for _, lv := range live {
		release(lv)
	}
	close(stopReaders)
	readers.Wait()
	if g.LiveViews() != 0 {
		t.Fatalf("LiveViews = %d after releasing everything", g.LiveViews())
	}
}

// TestDifferentialSnapshotsWithNoOps is the differential test of the
// copy-on-write hook's trigger: the pre-image of a node is taken by the
// first op that CHANGES it, so a stream thick with ops that change
// nothing — duplicate inserts, deletes of absent edges, at least a
// quarter of all ops — must still leave every live view equal to the
// model at its epoch. Batches carry the awkward order on purpose: a
// no-op on u, which must not count as having preserved u, and right
// behind it the op that does change u. Single ops, single-shard and
// multi-shard batches all go through the one hook; the tiny engine caps
// put chained nodes and S-DL-parked edges under it too. Every live view
// is checked after every step, with one view open and with three.
func TestDifferentialSnapshotsWithNoOps(t *testing.T) {
	for _, views := range []int{1, 3} {
		t.Run(fmt.Sprintf("views=%d", views), func(t *testing.T) {
			const (
				nodeSpace = 24
				valSpace  = 20
				steps     = 700
			)
			g := New(Config{Shards: 4, Core: core.Config{LCHTBase: 2, SCHTBase: 2, LDLCap: 2, SDLCap: 4}})
			model := make(refModel)
			rng := rand.New(rand.NewSource(int64(11 + views)))

			type liveView struct {
				view  *View
				model map[uint64][]uint64
				edges uint64
			}
			var live []liveView
			open := func() {
				frozen, edges := model.freeze()
				live = append(live, liveView{g.Snapshot(), frozen, edges})
			}
			for len(live) < views {
				open()
			}

			var attempted, applied uint64
			for s := 0; s < steps; s++ {
				var b core.Batch
				for n := 1 + rng.Intn(6); n > 0; n-- {
					u, v := rng.Uint64()%nodeSpace, rng.Uint64()%valSpace
					op, undo := core.InsertOp(u, v), core.DeleteOp(u, v)
					if rng.Intn(2) == 0 {
						op, undo = undo, op
					}
					b = append(b, op)
					// Whatever op did, op again changes nothing and its
					// opposite then must.
					if rng.Intn(3) == 0 {
						b = append(b, op, undo)
					}
				}
				attempted += uint64(len(b))
				if len(b) == 1 && b[0].Kind == core.OpInsert {
					if g.InsertEdge(b[0].U, b[0].V) {
						applied++
					}
				} else if len(b) == 1 {
					if g.DeleteEdge(b[0].U, b[0].V) {
						applied++
					}
				} else {
					applied += g.ApplyBatch(b).Applied()
				}
				model.apply(b)

				for _, lv := range live {
					verifyView(t, lv.view, lv.model, lv.edges, nodeSpace, valSpace, rng)
				}
				if t.Failed() {
					t.Fatalf("step %d: a view diverged after %v", s, b)
				}
				// Rotate the oldest view out now and then, so the open
				// views sit at different epochs.
				if rng.Intn(25) == 0 {
					live[0].view.Release()
					live = live[1:]
					open()
				}
			}
			if noops := attempted - applied; noops*4 < attempted {
				t.Fatalf("%d of %d ops were no-ops, want at least a quarter", noops, attempted)
			}
			frozen, edges := model.freeze()
			if g.NumEdges() != edges || g.NumNodes() != uint64(len(frozen)) || g.Mutations() != applied {
				t.Fatalf("live graph %d edges/%d nodes/%d mutations, model %d/%d/%d",
					g.NumEdges(), g.NumNodes(), g.Mutations(), edges, len(frozen), applied)
			}
			for _, lv := range live {
				lv.view.Release()
			}
		})
	}
}

package core

import (
	"slices"
	"testing"

	"cuckoograph/internal/hashutil"
)

// TestBeforeHookSeesPreState pins the contract of ApplyBatchFunc's
// before hook against the map-of-sets oracle, under the tiny caps that
// make every structure overflow: it runs exactly once per op that
// changes the graph, ahead of the change — inside it the engine still
// reads as the oracle did before the op, the degree it is handed is the
// oracle's, and the slice it returns comes back holding the oracle's
// successors — and never for a duplicate insert or an absent delete.
// Batches of 1…8 ops over five sources make most ops of a batch land on
// a source an earlier op of the same batch changed, so a hook that read
// anything but the engine's current state mid-batch would show.
func TestBeforeHookSeesPreState(t *testing.T) {
	var seen struct {
		newNode, lastEdge, parked, transformed, collapsed, repeated, declined int
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := tinyCaps
		cfg.Seed = seed
		g := NewGraph(cfg)
		e := g.e
		rng := hashutil.NewRNG(seed)
		want := oracle{}

		// State of the batch in flight: ops[:next] are accounted for.
		var ops Batch
		next, calls := 0, 0
		type handed struct {
			dst  []uint64
			want []uint64
		}
		var copies []handed
		var chainedBefore bool

		// skipNoOps advances over the ops the oracle says change nothing.
		skipNoOps := func() {
			for ; next < len(ops); next++ {
				op := ops[next]
				_, has := want[op.U][op.V]
				if has != (op.Kind == OpInsert) {
					return
				}
			}
		}
		before := func(u uint64, deg int) []uint64 {
			calls++
			skipNoOps()
			if next == len(ops) {
				t.Fatalf("seed %d: hook ran for node %d with no effective op left in %v", seed, u, ops)
			}
			op := ops[next]
			if op.U != u {
				t.Fatalf("seed %d: hook ran for node %d, next effective op is %+v", seed, u, op)
			}
			pre := make([]uint64, 0, len(want[u]))
			for v := range want[u] {
				pre = append(pre, v)
			}
			slices.Sort(pre)
			if deg != len(pre) || g.Degree(u) != len(pre) {
				t.Fatalf("seed %d: before %+v: handed degree %d, Degree %d, oracle %d", seed, op, deg, g.Degree(u), len(pre))
			}
			got := g.AppendSuccessors(u, nil)
			slices.Sort(got)
			if !slices.Equal(got, pre) {
				t.Fatalf("seed %d: before %+v: engine reads %v, oracle pre-state %v", seed, op, got, pre)
			}

			row := e.findPart2(hashutil.Key64(u), u)
			chainedBefore = row != nil && e.chainOf(row) != nil
			switch {
			case deg == 0:
				seen.newNode++
			case deg == 1 && op.Kind == OpDelete:
				seen.lastEdge++
			}
			if e.numParked(u) > 0 {
				seen.parked++
			}
			if next > 0 && slices.ContainsFunc(ops[:next], func(o Op) bool { return o.U == u }) {
				seen.repeated++
			}
			// A hook may decline the copy; the op must go ahead all the same.
			if calls%5 == 0 {
				seen.declined++
				return nil
			}
			dst := make([]uint64, deg)
			copies = append(copies, handed{dst, pre})
			return dst
		}
		onApplied := func(op Op) {
			// The very next thing after the change: the oracle follows.
			if op != ops[next] {
				t.Fatalf("seed %d: onApplied %+v, hook ran for %+v", seed, op, ops[next])
			}
			row := e.findPart2(hashutil.Key64(op.U), op.U)
			chainedAfter := row != nil && e.chainOf(row) != nil
			switch {
			case !chainedBefore && chainedAfter:
				seen.transformed++
			case chainedBefore && !chainedAfter:
				seen.collapsed++
			}
			if op.Kind == OpInsert {
				if want[op.U] == nil {
					want[op.U] = map[uint64]uint64{}
				}
				want[op.U][op.V] = 1
			} else if delete(want[op.U], op.V); len(want[op.U]) == 0 {
				delete(want, op.U)
			}
			next++
		}

		const sources, targets, batches = 5, 48, 3000
		for i := 0; i < batches; i++ {
			insertBias := 7
			if i/150%2 == 1 {
				insertBias = 2
			}
			ops = ops[:0]
			for n := 1 + rng.Intn(8); n > 0; n-- {
				u, v := rng.Uint64n(sources), rng.Uint64n(targets)
				op, undo := InsertOp(u, v), DeleteOp(u, v)
				if rng.Intn(10) >= insertBias {
					op, undo = undo, op
				}
				ops = append(ops, op)
				// Whatever op did, op again changes nothing and its
				// opposite then must: a no-op on u ahead of an effective one.
				if rng.Intn(4) == 0 {
					ops = append(ops, op, undo)
				}
			}
			next, calls, copies = 0, 0, copies[:0]
			res := g.ApplyBatchFunc(ops, before, onApplied)
			skipNoOps()
			if next != len(ops) {
				t.Fatalf("seed %d batch %d: op %+v changes the oracle, hook never ran for it", seed, i, ops[next])
			}
			if uint64(calls) != res.Inserted+res.Deleted {
				t.Fatalf("seed %d batch %d: hook ran %d times for %+v", seed, i, calls, res)
			}
			for _, c := range copies {
				slices.Sort(c.dst)
				if !slices.Equal(c.dst, c.want) {
					t.Fatalf("seed %d batch %d: pre-image filled with %v, oracle pre-state %v", seed, i, c.dst, c.want)
				}
			}
			walkEngine(t, e, want, func(*struct{}) uint64 { return 1 }, &coverage{})
		}
	}
	t.Logf("hook coverage: %+v", seen)
	if seen.newNode == 0 || seen.lastEdge == 0 || seen.parked == 0 || seen.transformed == 0 ||
		seen.collapsed == 0 || seen.repeated == 0 || seen.declined == 0 {
		t.Fatalf("a case is not covered: %+v", seen)
	}
}

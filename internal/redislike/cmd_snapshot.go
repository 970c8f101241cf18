package redislike

import (
	"fmt"
	"sort"
	"strconv"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/graphstore"
)

// Snapshot-ring and analytics command handlers. These are control-plane
// commands: they coordinate through viewMu, and the views they take
// freeze the graph only for their registration.

// snapshot takes a frozen view of the graph, retains it in the
// time-travel ring (evicting the oldest past the bound) and replies
// with its epoch tag. The view is taken under viewMu, the lock a
// restore empties the ring under, so it lands wholly before a restore
// (and is released with the ring) or wholly after it; and since a
// restore keeps the graph's epoch counter, an epoch tag never names
// two different graphs.
func (gm *GraphModule) snapshot(ctx *Ctx) error {
	gm.viewMu.Lock()
	v := gm.g.Snapshot()
	gm.views = append(gm.views, v)
	for len(gm.views) > gm.viewCap {
		gm.views[0].Release()
		gm.views = gm.views[1:]
	}
	gm.viewMu.Unlock()
	ctx.w.AppendInt(int64(v.Epoch()))
	return nil
}

// snapshots lists the retained epochs, oldest first.
func (gm *GraphModule) snapshots(ctx *Ctx) error {
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	ctx.w.AppendArrayHeader(len(gm.views))
	for _, v := range gm.views {
		ctx.w.AppendInt(int64(v.Epoch()))
	}
	return nil
}

// release drops the retained view with the given epoch, replying 1 if
// it existed.
func (gm *GraphModule) release(ctx *Ctx) error {
	epoch, err := argUint(ctx, 0, "epoch")
	if err != nil {
		return err
	}
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	for i, v := range gm.views {
		if v.Epoch() == epoch {
			v.Release()
			gm.views = append(gm.views[:i], gm.views[i+1:]...)
			ctx.w.AppendInt(1)
			return nil
		}
	}
	ctx.w.AppendInt(0)
	return nil
}

// analyticsStore resolves the store an epoch-tagged analytics command
// runs on: a retained view for an explicit epoch (with its own
// reference, so a concurrent g.release or ring eviction cannot panic
// the pass mid-flight), or a fresh ephemeral snapshot of now when the
// epoch is omitted — either way the pass runs on a frozen view, never
// blocks writers, and cleanup drops exactly the reference it holds.
// Views satisfy graphstore.Indexed, so every kernel the command calls
// runs on the view's CSR index: compiled lazily on the first analytics
// command against an epoch, memoized on the view for every later
// command at that epoch, and freed when the ring drops the snapshot.
func (gm *GraphModule) analyticsStore(epochArg string) (graphstore.Store, func(), error) {
	if epochArg != "" {
		epoch, err := strconv.ParseUint(epochArg, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad epoch %q", epochArg)
		}
		v := gm.viewAt(epoch)
		if v == nil {
			return nil, nil, fmt.Errorf("no retained snapshot with epoch %d (see g.snapshots)", epoch)
		}
		return v, v.Release, nil
	}
	v := gm.g.Snapshot()
	return v, v.Release, nil
}

// graphBFS is GRAPH.BFS <root> [epoch]: breadth-first traversal over a
// frozen view, replying with the visited nodes in traversal order.
func (gm *GraphModule) graphBFS(ctx *Ctx) error {
	root, err := argUint(ctx, 0, "node id")
	if err != nil {
		return err
	}
	epochArg := ""
	if len(ctx.Args) == 2 {
		epochArg = string(ctx.Args[1])
	}
	s, cleanup, err := gm.analyticsStore(epochArg)
	if err != nil {
		return badArg(ctx.Name, err.Error())
	}
	defer cleanup()
	order := analytics.BFS(s, root)
	ctx.w.AppendArrayHeader(len(order))
	for _, u := range order {
		ctx.w.AppendBulkUint(u)
	}
	return nil
}

// maxPageRankIters bounds GRAPH.PAGERANK's client-chosen iteration
// count, so one command cannot hold a serve goroutine and a frozen view
// (with the copy-on-write state it pins) without limit.
const maxPageRankIters = 1000

// graphPageRank is GRAPH.PAGERANK <iters> [epoch]: the power method
// over a frozen view, replying with a flat array of node, rank pairs
// sorted by node id.
func (gm *GraphModule) graphPageRank(ctx *Ctx) error {
	iters, err := strconv.Atoi(string(ctx.Args[0]))
	if err != nil || iters < 1 || iters > maxPageRankIters {
		return badArg(ctx.Name, fmt.Sprintf("bad iteration count %q (want 1 to %d)", string(ctx.Args[0]), maxPageRankIters))
	}
	epochArg := ""
	if len(ctx.Args) == 2 {
		epochArg = string(ctx.Args[1])
	}
	s, cleanup, err := gm.analyticsStore(epochArg)
	if err != nil {
		return badArg(ctx.Name, err.Error())
	}
	defer cleanup()
	rank := analytics.PageRank(s, iters)
	nodes := make([]uint64, 0, len(rank))
	for u := range rank {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	ctx.w.AppendArrayHeader(2 * len(nodes))
	for _, u := range nodes {
		ctx.w.AppendBulkUint(u)
		ctx.w.AppendBulkString(strconv.FormatFloat(rank[u], 'g', 10, 64))
	}
	return nil
}

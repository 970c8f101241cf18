package redislike

import (
	"fmt"
	"sort"
	"strconv"

	"cuckoograph/internal/analytics"
	"cuckoograph/internal/graphstore"
	"cuckoograph/internal/sharded"
)

// Snapshot-ring and analytics command handlers. These are control-plane
// commands: they are NOT registered through dataCmd and coordinate
// their own graph access and locking (viewMu, short swapMu reads).

// snapshot takes a frozen view of the graph, retains it in the
// time-travel ring (evicting the oldest past the bound) and replies
// with its epoch tag. The ring only ever holds views of the current
// graph: if a restore swaps the graph between taking the view and
// ringing it, the stale view is dropped and the snapshot retried —
// otherwise the ring would pin a dead graph's CoW state and, since a
// fresh graph's epochs restart at 1, could serve pre-restore data
// under a colliding epoch tag.
func (gm *GraphModule) snapshot(ctx *Ctx) error {
	for {
		var g *sharded.Graph
		var v *sharded.View
		gm.withGraph(func(cur *sharded.Graph) {
			g = cur
			v = cur.Snapshot()
		})
		gm.viewMu.Lock()
		if gm.Graph() != g {
			gm.viewMu.Unlock()
			v.Release()
			continue
		}
		gm.views = append(gm.views, ringEntry{g: g, v: v})
		for len(gm.views) > gm.viewCap {
			gm.views[0].v.Release()
			gm.views = gm.views[1:]
		}
		gm.viewMu.Unlock()
		ctx.ReplyInt(int64(v.Epoch()))
		return nil
	}
}

// snapshots lists the retained epochs of the current graph, oldest
// first (stale entries awaiting releaseStaleViews are invisible).
func (gm *GraphModule) snapshots(ctx *Ctx) error {
	cur := gm.Graph()
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	epochs := ctx.ids[:0]
	for _, e := range gm.views {
		if e.g == cur {
			epochs = append(epochs, e.v.Epoch())
		}
	}
	ctx.ids = epochs
	ctx.ReplyArrayHeader(len(epochs))
	for _, e := range epochs {
		ctx.ReplyInt(int64(e))
	}
	return nil
}

// release drops the retained view with the given epoch, replying 1 if
// it existed.
func (gm *GraphModule) release(ctx *Ctx) error {
	epoch, ok := parseUint64(ctx.Args[0])
	if !ok {
		return &BadArgError{Cmd: ctx.Name, Detail: "bad epoch " + strconv.Quote(ctx.ArgString(0))}
	}
	cur := gm.Graph()
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	for i, e := range gm.views {
		// Only current-graph entries are addressable; a stale entry with
		// a colliding epoch belongs to releaseStaleViews, not the client.
		if e.g == cur && e.v.Epoch() == epoch {
			e.v.Release()
			gm.views = append(gm.views[:i], gm.views[i+1:]...)
			ctx.ReplyInt(1)
			return nil
		}
	}
	ctx.ReplyInt(0)
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
	var v *sharded.View
	gm.withGraph(func(g *sharded.Graph) { v = g.Snapshot() })
	return v, v.Release, nil
}

// graphBFS is GRAPH.BFS <root> [epoch]: breadth-first traversal over a
// frozen view, replying with the visited nodes in traversal order.
func (gm *GraphModule) graphBFS(ctx *Ctx) error {
	root, ok := parseUint64(ctx.Args[0])
	if !ok {
		return &BadArgError{Cmd: ctx.Name, Detail: "bad node id " + strconv.Quote(ctx.ArgString(0))}
	}
	epochArg := ""
	if len(ctx.Args) == 2 {
		epochArg = ctx.ArgString(1)
	}
	s, cleanup, err := gm.analyticsStore(epochArg)
	if err != nil {
		return &BadArgError{Cmd: ctx.Name, Detail: err.Error()}
	}
	defer cleanup()
	order := analytics.BFS(s, root)
	ctx.ReplyArrayHeader(len(order))
	for _, u := range order {
		ctx.ReplyBulkUint(u)
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
	iters, err := strconv.Atoi(ctx.ArgString(0))
	if err != nil || iters < 1 || iters > maxPageRankIters {
		return &BadArgError{Cmd: ctx.Name,
			Detail: fmt.Sprintf("bad iteration count %q (want 1 to %d)", ctx.ArgString(0), maxPageRankIters)}
	}
	epochArg := ""
	if len(ctx.Args) == 2 {
		epochArg = ctx.ArgString(1)
	}
	s, cleanup, err := gm.analyticsStore(epochArg)
	if err != nil {
		return &BadArgError{Cmd: ctx.Name, Detail: err.Error()}
	}
	defer cleanup()
	rank := analytics.PageRank(s, iters)
	nodes := make([]uint64, 0, len(rank))
	for u := range rank {
		nodes = append(nodes, u)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	ctx.ReplyArrayHeader(2 * len(nodes))
	for _, u := range nodes {
		ctx.ReplyBulkUint(u)
		ctx.ReplyBulkString(strconv.FormatFloat(rank[u], 'g', 10, 64))
	}
	return nil
}

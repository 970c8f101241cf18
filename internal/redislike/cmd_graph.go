package redislike

import "cuckoograph/internal/core"

// Data-plane command handlers. Each works on gm.g and takes only shard
// locks: a restore swaps the contents inside a freeze of every shard,
// so a shard lock hold (and a multi-shard batch, which excludes the
// freeze) sees wholly the contents before it or wholly those after.
// Arity is already validated against the command's table row, so
// handlers only check argument *content*. These are the serving plane's hot
// commands: arguments are parsed straight from the connection's
// read-buffer views and replies are streamed, so a warm command cycle
// allocates nothing.

// parseBatchArgs decodes ⟨u,v⟩ pairs from a write command's arguments
// into a mutation batch of the given kind, reusing the connection's
// batch scratch.
func parseBatchArgs(ctx *Ctx, kind core.OpKind) (core.Batch, error) {
	if len(ctx.Args) == 0 || len(ctx.Args)%2 != 0 {
		return nil, badArg(ctx.Name, "expected <u> <v> [<u> <v> ...]")
	}
	b := ctx.batch[:0]
	for i := 0; i < len(ctx.Args); i += 2 {
		u, err := argUint(ctx, i, "node id")
		if err != nil {
			return nil, err
		}
		v, err := argUint(ctx, i+1, "node id")
		if err != nil {
			return nil, err
		}
		b = append(b, core.Op{Kind: kind, U: u, V: v})
	}
	ctx.batch = b
	return b, nil
}

// write builds the one handler behind G.INSERT, G.DEL, G.MINSERT and
// G.MDEL (their arity rows tell the single-edge commands from the
// batched ones): the ⟨u,v⟩ pairs become a batch of kind, applied and
// staged in the log — Graph.Stage, no I/O — and answered with
// ReplyStaged, the number of edges inserted or removed. The serve loop
// commits the whole drain before the reply leaves (see Server.commit),
// which is where a log failure surfaces.
func (gm *GraphModule) write(kind core.OpKind) HandlerFunc {
	return func(ctx *Ctx) error {
		b, err := parseBatchArgs(ctx, kind)
		if err != nil {
			return err
		}
		r := gm.g.Stage(b)
		n := r.Inserted
		if kind == core.OpDelete {
			n = r.Deleted
		}
		ctx.ReplyStaged(int64(n))
		return nil
	}
}

func (gm *GraphModule) query(ctx *Ctx) error {
	u, err := argUint(ctx, 0, "node id")
	if err != nil {
		return err
	}
	v, err := argUint(ctx, 1, "node id")
	if err != nil {
		return err
	}
	var hit int64
	if gm.g.HasEdge(u, v) {
		hit = 1
	}
	ctx.w.AppendInt(hit)
	return nil
}

func (gm *GraphModule) getNeighbors(ctx *Ctx) error {
	u, err := argUint(ctx, 0, "node id")
	if err != nil {
		return err
	}
	// Collect before writing the array header: Degree and the scan can
	// disagree under concurrent writers, and a header is a promise.
	ctx.ids = gm.g.AppendSuccessors(u, ctx.ids[:0])
	ctx.w.AppendArrayHeader(len(ctx.ids))
	for _, v := range ctx.ids {
		ctx.w.AppendBulkUint(v)
	}
	return nil
}

// degree replies with u's out-degree — the engine has always known it,
// the wire protocol just never asked.
func (gm *GraphModule) degree(ctx *Ctx) error {
	u, err := argUint(ctx, 0, "node id")
	if err != nil {
		return err
	}
	ctx.w.AppendInt(int64(gm.g.Degree(u)))
	return nil
}

// nodes replies with every source node (nodes with ≥1 out-edge).
func (gm *GraphModule) nodes(ctx *Ctx) error {
	ctx.ids = gm.g.AppendNodes(ctx.ids[:0])
	ctx.w.AppendArrayHeader(len(ctx.ids))
	for _, u := range ctx.ids {
		ctx.w.AppendBulkUint(u)
	}
	return nil
}

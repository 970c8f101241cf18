package redislike

import (
	"io"
	"log/slog"
	"sync"
	"sync/atomic"

	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// GraphModule wraps a CuckooGraph as a redislike module, providing the
// extended commands of §V-F — insert, del, query, getneighbors — plus
// batching, snapshots, analytics, durability control and replication.
// Whole-graph state leaves through View.Save (the checkpoint file is
// §V-F's RDB, the replication bootstrap the same bytes on a socket) and
// a graph sharded.Load or wal.Recover built from it comes back in
// through installGraph alone, which replaces the contents of the one
// graph the module ever has. The graph is the sharded concurrent
// engine, so handlers need no per-command mutual exclusion: commands on
// different source nodes run in parallel, each taking only the owning
// shard's lock; a restore freezes every shard to replace the contents.
//
// Commands are registered through the Command registry (see
// moduleCommands); the registrations carry the arity and flag metadata
// the server enforces and introspects.
type GraphModule struct {
	// g is assigned once, by NewGraphModule; a restore replaces its
	// contents, never the handle.
	g *sharded.Graph

	// srv is the server this module is loaded into (nil until
	// LoadModule, which runs before Listen): the path to the server's
	// loading, read-only and degraded flags.
	srv *Server
	log *slog.Logger

	// walMu serialises the durability control plane — enable, replay,
	// checkpoint, close — against itself. The data plane (insert/del/
	// query) never takes it.
	walMu sync.Mutex
	wal   *wal.WAL
	// walPtr mirrors wal for lock-free readers (/metrics, g.info): a
	// scrape must not queue behind a checkpoint holding walMu.
	walPtr atomic.Pointer[wal.WAL]
	// walOpts/walDir remember what EnableWAL opened, so ResumeWAL can
	// reopen the same log under the same policy after a storage failure
	// — including on a retry whose previous attempt already closed the
	// poisoned WAL. Guarded by walMu.
	walOpts wal.Options
	walDir  string
	// walPolicy is the WALErrorPolicy (readonly|panic) applied when the
	// data plane observes a log failure; atomic because the hot write
	// path reads it.
	walPolicy atomic.Int32
	// recovered remembers the last RecoverWAL so EnableWAL on the same
	// directory can skip its initial checkpoint: the directory already
	// describes that exact graph. muts is the graph's monotonic applied-
	// mutation counter at recovery time — comparing it (rather than
	// edge/node counts, which an insert/delete pair can leave unchanged)
	// is what proves nothing was written — or installed — in between.
	recovered struct {
		dir  string
		muts uint64
	}

	// Replication state. links is the leader side: one entry per
	// connected follower's replication stream, each holding a WAL
	// retention pin at its acked segment. replica is the follower side:
	// non-nil when this process was started with -replica-of and is
	// pulling the leader's log.
	replMu  sync.Mutex
	links   map[*replLink]struct{}
	replica atomic.Pointer[Replica]

	// viewMu guards the time-travel ring: a bounded, oldest-first list
	// of retained snapshot views. g.snapshot appends (releasing the
	// oldest past viewCap), g.release drops one, and the epoch-tagged
	// analytics commands resolve epochs against it. Bounding the ring
	// bounds the copy-on-write state retained views can pin. A restore
	// empties it (see installGraph).
	viewMu  sync.Mutex
	views   []*sharded.View
	viewCap int
}

// DefaultSnapshotRing is how many snapshot epochs the module retains
// for time-travel reads unless SetSnapshotRing says otherwise.
const DefaultSnapshotRing = 8

// NewGraphModule returns the CuckooGraph module ready for LoadModule.
func NewGraphModule() (*GraphModule, *Module) {
	gm := &GraphModule{
		g:       sharded.New(sharded.Config{}),
		viewCap: DefaultSnapshotRing,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	return gm, &Module{gm: gm}
}

// moduleCommands is the module's registry contribution: one Command per
// served name, with the arity and flags dispatch enforces and COMMAND /
// G.INFO report.
func (gm *GraphModule) moduleCommands() []*Command {
	return []*Command{
		{Name: "g.insert", Arity: Exactly(2), Flags: FlagWrite,
			Summary: "insert edge <u> <v>; replies 1 if newly added",
			Handler: gm.insert},
		{Name: "g.del", Arity: Exactly(2), Flags: FlagWrite,
			Summary: "delete edge <u> <v>; replies 1 if removed",
			Handler: gm.del},
		{Name: "g.minsert", Arity: AtLeast(2), Flags: FlagWrite,
			Summary: "batched insert of <u> <v> pairs; replies with edges added",
			Handler: gm.minsert},
		{Name: "g.mdel", Arity: AtLeast(2), Flags: FlagWrite,
			Summary: "batched delete of <u> <v> pairs; replies with edges removed",
			Handler: gm.mdel},
		{Name: "g.query", Arity: Exactly(2), Flags: FlagRead,
			Summary: "edge membership of <u> <v>",
			Handler: gm.query},
		{Name: "g.getneighbors", Arity: Exactly(1), Flags: FlagRead,
			Summary: "successors of <u>",
			Handler: gm.getNeighbors},
		{Name: "g.degree", Arity: Exactly(1), Flags: FlagRead,
			Summary: "out-degree of <u>",
			Handler: gm.degree},
		{Name: "g.nodes", Arity: Exactly(0), Flags: FlagRead,
			Summary: "every node with at least one out-edge",
			Handler: gm.nodes},
		{Name: "g.snapshot", Arity: Exactly(0), Flags: FlagAdmin,
			Summary: "freeze a consistent view; replies with its epoch",
			Handler: gm.snapshot},
		{Name: "g.snapshots", Arity: Exactly(0), Flags: FlagAdmin,
			Summary: "retained snapshot epochs, oldest first",
			Handler: gm.snapshots},
		{Name: "g.release", Arity: Exactly(1), Flags: FlagAdmin,
			Summary: "drop the retained snapshot with <epoch>",
			Handler: gm.release},
		{Name: "g.info", Arity: Between(0, 1), Flags: FlagRead | FlagAdmin,
			Summary: "server, registry, graph, snapshot and wal state [section]",
			Handler: gm.info},
		{Name: "graph.bfs", Arity: Between(1, 2), Flags: FlagRead,
			Summary: "BFS from <root> on a frozen view [epoch]",
			Handler: gm.graphBFS},
		{Name: "graph.pagerank", Arity: Between(1, 2), Flags: FlagRead,
			Summary: "PageRank with <iters> iterations on a frozen view [epoch]",
			Handler: gm.graphPageRank},
		{Name: "wal_enable", Arity: Between(1, 2), Flags: FlagAdmin,
			Summary: "enable the write-ahead log in <dir> [always|nosync]",
			Handler: gm.walEnable},
		{Name: "wal_replay", Arity: Exactly(1), Flags: FlagAdmin,
			Summary: "rebuild the graph from <dir> (checkpoint + log tail)",
			Handler: gm.walReplay},
		{Name: "checkpoint", Arity: Exactly(0), Flags: FlagAdmin,
			Summary: "snapshot the graph into the wal dir and truncate the log",
			Handler: gm.checkpoint},
		{Name: "wal_resume", Arity: Exactly(0), Flags: FlagAdmin,
			Summary: "reopen the wal after a storage failure and leave degraded mode",
			Handler: gm.walResume},
		{Name: "g.replicate", Arity: Exactly(2), Flags: FlagAdmin,
			Summary: "stream wal frames from <segment> <offset>; takes the connection over",
			Handler: gm.replicate},
		{Name: "g.replack", Arity: Exactly(2), Flags: FlagAdmin,
			Summary: "acknowledge replication progress <segment> <offset> (stream-only)",
			Handler: gm.replack},
	}
}

// Graph exposes the underlying sharded graph for in-process inspection.
func (gm *GraphModule) Graph() *sharded.Graph { return gm.g }

// Close is the module's ordered teardown, run by Shutdown after the
// connection drain: release every retained snapshot view (so the ring
// cannot pin CoW state past process exit) and then close the WAL,
// flushing everything pending. Both steps are idempotent.
func (gm *GraphModule) Close() error {
	// A follower stops pulling first so no apply can race the teardown
	// below; Stop is idempotent against an explicit caller Stop.
	if r := gm.replica.Load(); r != nil {
		r.Stop()
	}
	gm.viewMu.Lock()
	released := len(gm.views)
	gm.releaseRing()
	gm.viewMu.Unlock()
	if released > 0 {
		gm.log.Info("released snapshot ring", "views", released)
	}
	return gm.CloseWAL()
}

// SetSnapshotRing bounds how many snapshot epochs are retained for
// time-travel reads; taking a snapshot past the bound releases the
// oldest. Shrinking the ring releases the surplus immediately. n < 1
// keeps the bound at 1: g.snapshot always retains what it just took.
func (gm *GraphModule) SetSnapshotRing(n int) {
	if n < 1 {
		n = 1
	}
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	gm.viewCap = n
	for len(gm.views) > n {
		gm.views[0].Release()
		gm.views = gm.views[1:]
	}
}

// releaseRing releases every retained view and empties the ring; the
// caller holds viewMu.
func (gm *GraphModule) releaseRing() {
	for _, v := range gm.views {
		v.Release()
	}
	gm.views = nil
}

// viewAt resolves a retained view by epoch, adding a reference for the
// caller. Retaining under viewMu is what makes it safe: a ring entry
// always carries the ring's own reference while listed, so the view
// cannot reach zero — and start panicking readers — between the lookup
// and the Retain, however the release/evict commands race. The caller
// must Release the reference when done.
func (gm *GraphModule) viewAt(epoch uint64) *sharded.View {
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	for _, v := range gm.views {
		if v.Epoch() == epoch {
			v.Retain()
			return v
		}
	}
	return nil
}

// installGraph makes g's contents the module's graph — the one restore
// routine, behind the follower's bootstrap and RecoverWAL; g is
// consumed. Replace freezes every shard, so no in-flight command
// straddles it, and keeps the epoch counter, so no epoch names two
// graphs. The ring is emptied in the same viewMu hold: time travel does
// not survive a restore. installGraph never touches the WAL: a replica
// has none, and recovery runs before the log is enabled.
func (gm *GraphModule) installGraph(g *sharded.Graph) error {
	gm.viewMu.Lock()
	defer gm.viewMu.Unlock()
	if err := gm.g.Replace(g); err != nil {
		return err
	}
	gm.releaseRing()
	return nil
}

package redislike

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Introspection: the G.INFO command and the module's /metrics hook.
// Both are generated from live state — registry, engine Stats, snapshot
// ring, WAL counters — so there is no second bookkeeping surface to
// drift out of sync.

// infoSections is the section order of the full G.INFO reply.
var infoSections = []string{"server", "commands", "graph", "snapshots", "wal", "replication"}

// info is G.INFO [section]: Redis INFO-shaped key:value text, whole or
// one section at a time.
func (gm *GraphModule) info(ctx *Ctx) error {
	want := ""
	if len(ctx.Args) == 1 {
		want = strings.ToLower(ctx.ArgString(0))
		ok := false
		for _, s := range infoSections {
			if s == want {
				ok = true
				break
			}
		}
		if !ok {
			return &BadArgError{Cmd: ctx.Name,
				Detail: "unknown section " + strconv.Quote(want) + " (want " + strings.Join(infoSections, "|") + ")"}
		}
	}
	var b strings.Builder
	for _, s := range infoSections {
		if want != "" && s != want {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "# %s\n", s)
		switch s {
		case "server":
			gm.infoServer(ctx, &b)
		case "commands":
			gm.infoCommands(ctx, &b)
		case "graph":
			writeInfo(&b, gm.graphRows())
		case "snapshots":
			writeInfo(&b, gm.snapshotRows())
		case "wal":
			gm.infoWAL(&b)
		case "replication":
			gm.infoReplication(ctx, &b)
		}
	}
	ctx.ReplyBulkString(b.String())
	return nil
}

func (gm *GraphModule) infoServer(ctx *Ctx, b *strings.Builder) {
	s := ctx.Server()
	if s == nil {
		fmt.Fprintf(b, "standalone:1\n")
		return
	}
	m := s.Metrics()
	fmt.Fprintf(b, "uptime_seconds:%d\n", int64(time.Since(m.start).Seconds()))
	fmt.Fprintf(b, "connections_active:%d\n", m.connsActive.Load())
	fmt.Fprintf(b, "connections_accepted:%d\n", m.connsAccepted.Load())
	fmt.Fprintf(b, "connections_rejected:%d\n", m.connsRejected.Load())
	fmt.Fprintf(b, "loading:%d\n", b2i(s.Loading()))
	fmt.Fprintf(b, "degraded:%d\n", b2i(s.Degraded()))
	if reason := s.DegradedReason(); reason != "" {
		fmt.Fprintf(b, "degraded_reason:%s\n", reason)
	}
	fmt.Fprintf(b, "shutting_down:%d\n", b2i(s.draining()))
}

func (gm *GraphModule) infoCommands(ctx *Ctx, b *strings.Builder) {
	s := ctx.Server()
	if s == nil {
		return
	}
	fmt.Fprintf(b, "commands_registered:%d\n", s.Registry().Len())
	m := s.Metrics()
	for _, c := range s.Registry().Commands() {
		v, ok := m.cmds.Load(c.Name)
		if !ok {
			continue
		}
		cm := v.(*cmdMetrics)
		fmt.Fprintf(b, "cmdstat_%s:calls=%d,errors=%d,usec=%d\n",
			c.Name, cm.calls.Load(), cm.errs.Load(), cm.sumNS.Load()/1e3)
	}
}

// infoRow is one quantity of a G.INFO section that /metrics exposes too:
// G.INFO prints key:value, /metrics the same row as cg_<section>_<key>
// (cg_<section>_<key>_total for a counter), so the two surfaces list the
// same quantities. graphRows and snapshotRows each declare a section once.
type infoRow struct {
	key, help string
	counter   bool
	val       float64
}

func writeInfo(b *strings.Builder, rows []infoRow) {
	for _, r := range rows {
		fmt.Fprintf(b, "%s:%s\n", r.key, formatValue(r.val))
	}
}

func writeMetrics(mw *MetricsWriter, prefix string, rows []infoRow) {
	for _, r := range rows {
		if r.counter {
			mw.Counter(prefix+r.key+"_total", r.help, r.val)
		} else {
			mw.Gauge(prefix+r.key, r.help, r.val)
		}
	}
}

func (gm *GraphModule) graphRows() []infoRow {
	g := gm.Graph()
	st := g.Stats()
	return []infoRow{
		{"nodes", "Nodes with at least one out-edge.", false, float64(st.Nodes)},
		{"edges", "Edges in the graph.", false, float64(st.Edges)},
		{"shards", "Shards in the concurrent engine.", false, float64(g.Shards())},
		{"mutations", "Applied mutations since the graph was created.", true, float64(g.Mutations())},
		{"memory_bytes", "Estimated engine memory footprint.", false, float64(g.MemoryUsage())},
		{"lcht_tables", "Tables in the L-CHT chains, summed over shards.", false, float64(st.LCHTTables)},
		{"lcht_cells", "Cells in the L-CHT chains, summed over shards.", false, float64(st.LCHTCells)},
		{"lcht_load_rate", "Overall LCHT load rate.", false, st.LCHTLoadRate},
		{"lcht_kicks", "Cuckoo kicks in the large-degree tables.", true, float64(st.LCHTKicks)},
		{"lcht_placements", "Cells placed into the L-CHT, the base of lcht_kicks.", true, float64(st.LCHTPlacements)},
		{"chains", "Nodes whose neighbours live in an S-CHT chain.", false, float64(st.Chains)},
		{"scht_tables", "Tables over all S-CHT chains.", false, float64(st.SCHTTables)},
		{"chain_entries", "Edges stored in S-CHT chains.", false, float64(st.ChainEntries)},
		{"scht_kicks", "Cuckoo kicks in the S-CHT chains, collapsed chains included.", true, float64(st.SCHTKicks)},
		{"scht_placements", "Edges placed into S-CHT chains, the base of scht_kicks.", true, float64(st.SCHTPlacements)},
		{"transformations", "LDL/SDL/LCHT structure transformations.", true, float64(st.Transformations)},
		{"ldl_len", "Cells parked in the L-DL, summed over shards (cap 64 per shard by default).", false, float64(st.LDLLen)},
		{"sdl_len", "Edges parked in the S-DL, summed over shards (cap 256 per shard by default).", false, float64(st.SDLLen)},
	}
}

func (gm *GraphModule) snapshotRows() []infoRow {
	vs := gm.Graph().ViewStats()
	gm.viewMu.Lock()
	retained, capacity := len(gm.views), gm.viewCap
	gm.viewMu.Unlock()
	return []infoRow{
		{"epoch", "Current snapshot epoch.", false, float64(vs.Epoch)},
		{"live_views", "Frozen views currently retained (ring + in-flight).", false, float64(vs.LiveViews)},
		{"cow_bytes", "Pre-image bytes copied for snapshot isolation since start.", true, float64(vs.CoWBytes)},
		{"ring_retained", "Views retained in the time-travel ring.", false, float64(retained)},
		{"ring_capacity", "Views the time-travel ring retains at most.", false, float64(capacity)},
		{"csr_builds", "Epochs compiled into a CSR index.", true, float64(vs.CSRBuilds)},
		{"csr_build_seconds", "Time spent compiling epochs into CSR indexes.", true, float64(vs.CSRBuildNanos) / 1e9},
		{"csr_bytes", "Bytes of CSR indexes, as built, held by unreleased views.", false, float64(vs.CSRBytes)},
	}
}

func (gm *GraphModule) infoWAL(b *strings.Builder) {
	w := gm.walPtr.Load()
	if w == nil {
		fmt.Fprintf(b, "enabled:0\n")
		return
	}
	st := w.Stats()
	fmt.Fprintf(b, "enabled:1\n")
	fmt.Fprintf(b, "dir:%s\n", w.Dir())
	fmt.Fprintf(b, "on_error_policy:%s\n", gm.WALErrorPolicyValue().String())
	fmt.Fprintf(b, "segment:%d\n", st.Segment)
	fmt.Fprintf(b, "appends:%d\n", st.Appends)
	fmt.Fprintf(b, "records:%d\n", st.Records)
	fmt.Fprintf(b, "ops:%d\n", st.Ops)
	fmt.Fprintf(b, "bytes:%d\n", st.Bytes)
	fmt.Fprintf(b, "group_commits:%d\n", st.GroupCommits)
	fmt.Fprintf(b, "syncs:%d\n", st.Syncs)
	fmt.Fprintf(b, "rotations:%d\n", st.Rotations)
	fmt.Fprintf(b, "pending_bytes:%d\n", st.PendingBytes)
	fmt.Fprintf(b, "failed:%d\n", b2i(st.Failed))
}

func (gm *GraphModule) infoReplication(ctx *Ctx, b *strings.Builder) {
	if r := gm.replica.Load(); r != nil {
		fmt.Fprintf(b, "role:replica\n")
		fmt.Fprintf(b, "leader:%s\n", r.Leader())
		fmt.Fprintf(b, "state:%s\n", replicaStateName(r.state.Load()))
		fmt.Fprintf(b, "applied_segment:%d\n", r.posSeg.Load())
		fmt.Fprintf(b, "applied_offset:%d\n", r.posOff.Load())
		fmt.Fprintf(b, "leader_segment:%d\n", r.leaderSeg.Load())
		fmt.Fprintf(b, "leader_offset:%d\n", r.leaderOff.Load())
		fmt.Fprintf(b, "bytes_received:%d\n", r.bytes.Load())
		fmt.Fprintf(b, "frames_applied:%d\n", r.frames.Load())
		fmt.Fprintf(b, "ops_applied:%d\n", r.ops.Load())
		fmt.Fprintf(b, "snapshots_installed:%d\n", r.snapshots.Load())
		fmt.Fprintf(b, "reconnects:%d\n", r.reconnects.Load())
		if s := ctx.Server(); s != nil {
			fmt.Fprintf(b, "read_only:%d\n", b2i(s.ReadOnly()))
		}
		return
	}
	fmt.Fprintf(b, "role:leader\n")
	links := gm.replLinks()
	fmt.Fprintf(b, "connected_replicas:%d\n", len(links))
	if w := gm.walPtr.Load(); w != nil {
		if floor, held := w.RetentionFloor(); held {
			fmt.Fprintf(b, "retention_floor_segment:%d\n", floor)
		}
	}
	for i, l := range links {
		fmt.Fprintf(b, "replica%d:addr=%s,ack_segment=%d,ack_offset=%d,sent_segment=%d,sent_offset=%d,sent_bytes=%d,snapshots=%d,age_seconds=%d\n",
			i, l.addr, l.ackSeg.Load(), l.ackOff.Load(), l.sentSeg.Load(), l.sentOff.Load(),
			l.sentBytes.Load(), l.snapshots.Load(), int64(time.Since(l.since).Seconds()))
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// collectMetrics is the module's Metrics hook: engine, snapshot-ring
// and WAL state under the server's /metrics scrape. The WAL pointer is
// read through the lock-free mirror so a scrape never queues behind a
// checkpoint holding walMu.
func (gm *GraphModule) collectMetrics(mw *MetricsWriter) {
	writeMetrics(mw, "cg_graph_", gm.graphRows())
	writeMetrics(mw, "cg_snapshot_", gm.snapshotRows())

	w := gm.walPtr.Load()
	if w == nil {
		mw.Gauge("cg_wal_enabled", "1 while a write-ahead log is attached.", 0)
	} else {
		// The mirror is cleared before CloseWAL closes the WAL, but a
		// scrape can still hold a pointer loaded just before the store;
		// Stats on a closed WAL is well-defined (final counters), so
		// either interleaving reports consistently.
		ws := w.Stats()
		mw.Gauge("cg_wal_enabled", "1 while a write-ahead log is attached.", 1)
		mw.Counter("cg_wal_appends_total", "Accepted stage calls (one per logged command or shard partition).", float64(ws.Appends))
		mw.Counter("cg_wal_records_total", "Framed records handed to write(2).", float64(ws.Records))
		mw.Counter("cg_wal_ops_total", "Edge mutations logged.", float64(ws.Ops))
		mw.Counter("cg_wal_bytes_total", "Frame bytes handed to write(2).", float64(ws.Bytes))
		mw.Counter("cg_wal_group_commits_total", "Group commits (write(2) batches).", float64(ws.GroupCommits))
		mw.Counter("cg_wal_syncs_total", "fsyncs of segment data.", float64(ws.Syncs))
		mw.Counter("cg_wal_rotations_total", "Segment rotations.", float64(ws.Rotations))
		mw.Gauge("cg_wal_segment", "Segment currently appended to.", float64(ws.Segment))
		mw.Gauge("cg_wal_pending_bytes", "In-memory bytes of staged ops no group commit has taken yet.", float64(ws.PendingBytes))
		mw.Gauge("cg_wal_failed", "1 once the WAL's sticky error is set.", boolGauge(ws.Failed))
	}

	if r := gm.replica.Load(); r != nil {
		mw.Gauge("cg_repl_role", "0 on a leader, 1 on a replica.", 1)
		mw.Gauge("cg_repl_replica_streaming", "1 while the replication link is live.", boolGauge(r.state.Load() == replicaStreaming))
		mw.Gauge("cg_repl_replica_segment", "Last applied log segment.", float64(r.posSeg.Load()))
		mw.Gauge("cg_repl_replica_offset", "Last applied offset within the segment.", float64(r.posOff.Load()))
		mw.Counter("cg_repl_replica_bytes_total", "Replication payload bytes applied.", float64(r.bytes.Load()))
		mw.Counter("cg_repl_replica_frames_total", "Replication frame chunks applied.", float64(r.frames.Load()))
		mw.Counter("cg_repl_replica_ops_total", "Edge mutations applied from the stream.", float64(r.ops.Load()))
		mw.Counter("cg_repl_replica_snapshots_total", "Bootstrap snapshots installed.", float64(r.snapshots.Load()))
		mw.Counter("cg_repl_replica_reconnects_total", "Replication link losses.", float64(r.reconnects.Load()))
		return
	}
	mw.Gauge("cg_repl_role", "0 on a leader, 1 on a replica.", 0)
	links := gm.replLinks()
	mw.Gauge("cg_repl_connected_replicas", "Followers currently streaming.", float64(len(links)))
	var sent, snaps uint64
	for _, l := range links {
		sent += l.sentBytes.Load()
		snaps += l.snapshots.Load()
	}
	mw.Gauge("cg_repl_sent_bytes", "Payload bytes sent to currently connected followers.", float64(sent))
	mw.Gauge("cg_repl_sent_snapshots", "Bootstrap snapshots pushed to currently connected followers.", float64(snaps))
	if w != nil {
		if floor, held := w.RetentionFloor(); held {
			mw.Gauge("cg_repl_retention_floor_segment", "Lowest segment pinned by a connected follower.", float64(floor))
		}
	}
}

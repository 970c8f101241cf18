package redislike

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cuckoograph/internal/wal"
)

// Introspection: the G.INFO command and the module's /metrics series.
// Both are generated from live state — command table, engine Stats, snapshot
// ring, WAL counters — so there is no second bookkeeping surface to
// drift out of sync.

// infoSections is the section order of the full G.INFO reply.
var infoSections = []string{"server", "commands", "graph", "snapshots", "wal", "replication"}

// info is G.INFO [section]: Redis INFO-shaped key:value text, whole or
// one section at a time.
func (gm *GraphModule) info(ctx *Ctx) error {
	want := ""
	if len(ctx.Args) == 1 {
		want = strings.ToLower(string(ctx.Args[0]))
		ok := false
		for _, s := range infoSections {
			if s == want {
				ok = true
				break
			}
		}
		if !ok {
			return badArg(ctx.Name, "unknown section "+strconv.Quote(want)+" (want "+strings.Join(infoSections, "|")+")")
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
			s := gm.srv
			fmt.Fprintf(&b, "uptime_seconds:%d\n", int64(time.Since(s.metrics.start).Seconds()))
			writeInfo(&b, s.serverRows())
			if reason := s.degraded.Load(); reason != nil {
				fmt.Fprintf(&b, "degraded_reason:%s\n", *reason)
			}
		case "commands":
			gm.infoCommands(&b)
		case "graph":
			writeInfo(&b, gm.graphRows())
		case "snapshots":
			writeInfo(&b, gm.snapshotRows())
		case "wal":
			w := gm.walPtr.Load()
			writeInfo(&b, walRows(w))
			if w != nil {
				fmt.Fprintf(&b, "dir:%s\n", w.Dir())
			}
		case "replication":
			gm.infoReplication(&b)
		}
	}
	ctx.w.AppendBulkString(b.String())
	return nil
}

func (gm *GraphModule) infoCommands(b *strings.Builder) {
	s := gm.srv
	fmt.Fprintf(b, "commands_registered:%d\n", len(s.sorted))
	for _, c := range s.sorted {
		cm := c.metrics
		fmt.Fprintf(b, "cmdstat_%s:calls=%d,errors=%d,usec=%d\n",
			c.Name, cm.calls.Load(), cm.errs.Load(), cm.sumNS.Load()/1e3)
	}
}

// infoRow is one quantity of a G.INFO section that /metrics exposes too:
// G.INFO prints key:value, /metrics the same row as <prefix><key>
// (<prefix><key>_total for a counter), so the two surfaces list the same
// quantities under the same names (replicaSeries lists the six older
// series names that are kept). Each section is declared once, as a
// function returning its rows: serverRows (prefix cg_), graphRows
// (cg_graph_), snapshotRows (cg_snapshot_), walRows (cg_wal_), and for
// replication leaderRows (cg_repl_) or replicaRows (cg_repl_replica_)
// by role. String-valued keys (dir, leader, state, the per-follower
// lines) have no series and are printed by G.INFO beside the rows; so is
// uptime_seconds, a clock the two surfaces read a moment apart (whole
// seconds here, a float on cg_uptime_seconds).
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
	g := gm.g
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
		{"transformations", "Forward and reverse transformations of the L-CHT and the S-CHT chains, collapsed chains included.", true, float64(st.Transformations)},
		{"ldl_len", "Cells parked in the L-DL, summed over shards (cap 64 per shard by default).", false, float64(st.LDLLen)},
		{"sdl_len", "Edges parked in the S-DL, summed over shards (cap 256 per shard by default).", false, float64(st.SDLLen)},
	}
}

func (gm *GraphModule) snapshotRows() []infoRow {
	vs := gm.g.ViewStats()
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
		{"csr_bytes", "Bytes of CSR indexes held by unreleased views.", false, float64(vs.CSRBytes)},
	}
}

// serverRows declares the server section.
func (s *Server) serverRows() []infoRow {
	m := s.metrics
	return []infoRow{
		{"connections_active", "Connections currently tracked by the server.", false, float64(m.connsActive.Load())},
		{"connections_accepted", "Connections admitted by the server.", true, float64(m.connsAccepted.Load())},
		{"connections_rejected", "Connections refused by admission control (limit or shutdown).", true, float64(m.connsRejected.Load())},
		{"degraded", "1 while a WAL failure has writes rejected with -MISCONF (reads keep serving).", false, boolGauge(s.Degraded())},
		{"shutting_down", "1 once the server has begun draining.", false, boolGauge(s.draining())},
	}
}

// walRows declares the wal section for w, the attached log (nil: none).
// Callers load w through the lock-free mirror, so a scrape never queues
// behind a checkpoint holding walMu; one that loaded it just before
// CloseWAL cleared it still reads consistently, as Stats on a closed WAL
// is well-defined (final counters).
func walRows(w *wal.WAL) []infoRow {
	rows := []infoRow{{"enabled", "1 while a write-ahead log is attached.", false, boolGauge(w != nil)}}
	if w == nil {
		return rows
	}
	st := w.Stats()
	return append(rows, []infoRow{
		{"segment", "Segment currently appended to.", false, float64(st.Segment)},
		{"appends", "Accepted stage calls (one per logged command or shard partition).", true, float64(st.Appends)},
		{"records", "Framed records handed to write(2).", true, float64(st.Records)},
		{"ops", "Edge mutations logged.", true, float64(st.Ops)},
		{"bytes", "Frame bytes handed to write(2).", true, float64(st.Bytes)},
		{"group_commits", "Group commits (write(2) batches).", true, float64(st.GroupCommits)},
		{"syncs", "fsyncs of segment data.", true, float64(st.Syncs)},
		{"rotations", "Segment rotations.", true, float64(st.Rotations)},
		{"pending_bytes", "In-memory bytes of staged ops no group commit has taken yet.", false, float64(st.PendingBytes)},
		{"failed", "1 once the WAL's sticky error is set.", false, boolGauge(st.Failed)},
	}...)
}

// replicaSeries names the six follower keys whose /metrics series had a
// different name before the section was declared once: both names stay,
// so neither a script reading G.INFO nor a dashboard on /metrics goes
// empty. Every other row's series is named by its key.
var replicaSeries = map[string]string{
	"applied_segment": "segment", "applied_offset": "offset",
	"bytes_received": "bytes", "frames_applied": "frames",
	"ops_applied": "ops", "snapshots_installed": "snapshots",
}

// replicaRows declares the replication section of a follower. The
// leader_* pair is the leader tail as of its last ping: the distance
// from applied_* is the replica's lag.
func (gm *GraphModule) replicaRows(r *Replica) []infoRow {
	return []infoRow{
		{"streaming", "1 while the replication link is live.", false, boolGauge(r.state.Load() == replicaStreaming)},
		{"applied_segment", "Log segment of the next position to apply.", false, float64(r.posSeg.Load())},
		{"applied_offset", "Offset of that position within the segment.", false, float64(r.posOff.Load())},
		{"leader_segment", "Leader tail segment as of its last ping.", false, float64(r.leaderSeg.Load())},
		{"leader_offset", "Leader tail offset as of its last ping.", false, float64(r.leaderOff.Load())},
		{"bytes_received", "Replication payload bytes applied, snapshots included.", true, float64(r.bytes.Load())},
		{"frames_applied", "Replication frame chunks applied.", true, float64(r.frames.Load())},
		{"ops_applied", "Edge mutations applied from the stream.", true, float64(r.ops.Load())},
		{"snapshots_installed", "Bootstrap snapshots installed.", true, float64(r.snapshots.Load())},
		{"reconnects", "Replication link losses.", true, float64(r.reconnects.Load())},
		{"read_only", "1 while client writes are rejected with -READONLY.", false, 1}, // these rows exist only on a replica
	}
}

// leaderRows declares the replication section of a leader; sent_* sum
// over the connected followers, which G.INFO also lists one by one.
func (gm *GraphModule) leaderRows(links []*replLink) []infoRow {
	var sent, snaps uint64
	for _, l := range links {
		sent += l.sentBytes.Load()
		snaps += l.snapshots.Load()
	}
	rows := []infoRow{
		{"connected_replicas", "Followers currently streaming.", false, float64(len(links))},
		{"sent_bytes", "Payload bytes sent to currently connected followers.", false, float64(sent)},
		{"sent_snapshots", "Bootstrap snapshots pushed to currently connected followers.", false, float64(snaps)},
	}
	if w := gm.walPtr.Load(); w != nil {
		if floor, held := w.RetentionFloor(); held {
			rows = append(rows, infoRow{"retention_floor_segment", "Lowest segment pinned by a connected follower.", false, float64(floor)})
		}
	}
	return rows
}

func (gm *GraphModule) infoReplication(b *strings.Builder) {
	if r := gm.replica.Load(); r != nil {
		fmt.Fprintf(b, "role:replica\n")
		fmt.Fprintf(b, "leader:%s\n", r.Leader())
		fmt.Fprintf(b, "state:%s\n", replicaStateName(r.state.Load()))
		writeInfo(b, gm.replicaRows(r))
		return
	}
	links := gm.replLinks()
	fmt.Fprintf(b, "role:leader\n")
	writeInfo(b, gm.leaderRows(links))
	for i, l := range links {
		fmt.Fprintf(b, "replica%d:addr=%s,ack_segment=%d,ack_offset=%d,sent_segment=%d,sent_offset=%d,sent_bytes=%d,snapshots=%d,age_seconds=%d\n",
			i, l.addr, l.ackSeg.Load(), l.ackOff.Load(), l.sentSeg.Load(), l.sentOff.Load(),
			l.sentBytes.Load(), l.snapshots.Load(), int64(time.Since(l.since).Seconds()))
	}
}

// collectMetrics renders the graph, snapshots, wal and replication
// sections of G.INFO as series on the server's /metrics scrape.
func (gm *GraphModule) collectMetrics(mw *MetricsWriter) {
	writeMetrics(mw, "cg_graph_", gm.graphRows())
	writeMetrics(mw, "cg_snapshot_", gm.snapshotRows())
	writeMetrics(mw, "cg_wal_", walRows(gm.walPtr.Load()))
	r := gm.replica.Load()
	mw.Gauge("cg_repl_role", "0 on a leader, 1 on a replica.", boolGauge(r != nil))
	if r != nil {
		rows := gm.replicaRows(r)
		for i := range rows {
			if series, ok := replicaSeries[rows[i].key]; ok {
				rows[i].key = series
			}
		}
		writeMetrics(mw, "cg_repl_replica_", rows)
	} else {
		writeMetrics(mw, "cg_repl_", gm.leaderRows(gm.replLinks()))
	}
}

package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cuckoograph"
	"cuckoograph/internal/core"
	"cuckoograph/internal/cuckoo"
	"cuckoograph/internal/hashutil"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// perLayerMetrics are reported by every traced run, in this order. The
// trace.* ones and benchmark.op_*, gc_pause_ms and trace_overhead_frac
// come from the traced workload itself; the rest come from the layer
// probes below, which push fixed, seeded inputs through each layer's
// public entry points and are the same whichever workload the run names. Metrics whose comment says "count" are made
// from counters alone and repeat exactly for a seed.
var perLayerMetrics = []struct{ name, unit string }{
	{"cuckoo.insert_ns", "ns"},
	{"cuckoo.delete_ns", "ns"},
	{"cuckoo.lookup_hit_ns", "ns"},
	{"cuckoo.lookup_miss_ns", "ns"},
	{"cuckoo.kicks_per_placement", "ratio"}, // count
	{"cuckoo.transformations", "count"},     // count
	{"cuckoo.tables_per_chain", "count"},    // count
	{"cuckoo.load_rate", "ratio"},           // count

	{"core.insert_ns", "ns"},
	{"core.query_ns", "ns"},
	{"core.delete_ns", "ns"},
	{"core.chained_hit_ns", "ns"},
	{"core.chained_miss_ns", "ns"},
	{"core.chained_degree_ns", "ns"},
	{"core.chained_scan_ns_per_edge", "ns"},
	{"core.inline_hit_ns", "ns"},
	{"core.batch512_ns", "ns"},
	{"core.struct_bytes_per_edge", "B"}, // count
	{"core.lcht_load_rate", "ratio"},    // count
	{"core.chained_node_frac", "ratio"}, // count
	{"core.denylist_len", "count"},      // count

	{"sharded.single_added_ns", "ns"},
	{"sharded.scaling_eff_w2", "ratio"},
	{"sharded.cow_bytes_per_kmut", "B"},
	{"sharded.batch512_added_ns", "ns"},
	{"sharded.snapshot_open_us", "us"},

	{"wal.append_ns_per_op", "ns"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.checkpoint_stall_ratio", "ratio"},
	{"wal.bytes_per_op", "B"},        // count
	{"wal.records_per_kop", "count"}, // count
	{"wal.ops_per_group_commit", "ratio"},
	{"wal.recover_ms", "ms"},
	{"wal.replay_ops_per_s", "1/s"},
	{"wal.fsync_p50_us", "us"},

	{"csr.build_ms", "ms"},
	{"csr.bytes_per_edge", "B"}, // count

	{"analytics.pagerank_ms", "ms"},
	{"analytics.bfs_ms", "ms"},
	{"analytics.cc_ms", "ms"},

	{"resp.parse_ns_per_cmd", "ns"},
	{"resp.encode_ns_per_reply", "ns"},

	{"redislike.d1_ns_per_cmd", "ns"},
	{"redislike.d16_ns_per_cmd", "ns"},
	{"redislike.d256_ns_per_cmd", "ns"},
	{"redislike.added_ns_d256", "ns"},
	{"redislike.allocs_per_cmd", "count"},
	{"redislike.rtt_added_us_d1", "us"},
	{"redislike.cmd_errors", "count"}, // count

	{"benchmark.op_p50_us", "us"},
	{"benchmark.op_tail_us", "us"},
	{"benchmark.tail_percentile", "%"},
	{"benchmark.late_p99_us", "us"},
	{"benchmark.backlog_max", "count"},
	{"benchmark.over_limit_frac", "ratio"},
	{"benchmark.p999_us", "us"},
	{"benchmark.max_ok_rate", "1/s"},
	{"benchmark.gc_pause_ms", "ms"},
	{"benchmark.trace_overhead_frac", "ratio"},

	{"trace.benchmark_self_ns_per_op", "ns"},
	{"trace.core_self_ns_per_op", "ns"},
	{"trace.sharded_self_ns_per_op", "ns"},
	{"trace.wal_self_ns_per_op", "ns"},
	{"trace.csr_self_ns_per_op", "ns"},
	{"trace.analytics_self_ns_per_op", "ns"},
	{"trace.redislike_self_ns_per_op", "ns"},
}

// exactCounts are the per-layer metrics that must repeat exactly when
// the same seed runs twice.
var exactCounts = []string{
	"cuckoo.kicks_per_placement", "cuckoo.transformations", "cuckoo.tables_per_chain", "cuckoo.load_rate",
	"core.struct_bytes_per_edge", "core.lcht_load_rate", "core.chained_node_frac", "core.denylist_len",
	"wal.bytes_per_op", "wal.records_per_kop", "csr.bytes_per_edge", "redislike.cmd_errors",
}

// probeSizes are the probes' inputs: fixed, and small enough that all
// probes together take about ten seconds.
type probeSizes struct {
	chains, chainKeys       int    // cuckoo: chains × keys per chain
	coreScale               uint64 // core: StackOverflow scale
	chainedSrc, chainedOps  int    // core: chained-read graph and calls per kind
	inlineSrc               int    // core/sharded: sources with three inline edges
	mixOps                  int    // sharded: single-op calls per run
	window, batches         int    // batch ladder: live edges, batches per level
	csrScale                uint64 // csr/analytics: NotreDame scale
	srvSources, ladderCmds  int    // redislike ladder
	d1Cmds                  int
	rates                   []int // open-loop sweep, commands per second; includes the workload's rate
	sweepSeconds            float64
	fsyncAppends            int
	fsyncBudget             time.Duration
	snapshotOpens, csrJobs  int
	recoverTailBatches      int
	respCmds, scalingRepeat int
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]float64

// probes is one pass over the layer probes.
type probes struct {
	seed              uint64
	ps                probeSizes
	dir               string
	m                 layerMetrics
	attempted, failed int64
}

func (p *probes) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

// nsPer times fn and returns nanoseconds per unit of work.
func nsPer(units int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(units)
}

// runProbes measures every probe-backed per-layer metric into m and
// returns how many results it checked and how many were wrong.
func runProbes(seed uint64, sz sizes, scratch string, m layerMetrics) (attempted, failed int64, err error) {
	p := &probes{seed: seed, ps: sz.probe, dir: scratch, m: m}
	p.cuckoo()
	p.core()
	shardedBatchNS := p.sharded()
	if err := p.wal(shardedBatchNS); err != nil {
		return 0, 0, err
	}
	p.csrAndAnalytics()
	p.resp()
	if err := p.ladder(sz); err != nil {
		return 0, 0, err
	}
	return p.attempted, p.failed, nil
}

// ---- cuckoo ----

func (p *probes) cuckoo() {
	cfg := cuckoo.Config{Seed: 1}.Defaults()
	base := core.Config{}.Defaults().SCHTBase
	n := p.ps.chains * p.ps.chainKeys
	chains := make([]*cuckoo.Chain[struct{}], p.ps.chains)
	for i := range chains {
		chains[i] = cuckoo.NewChain[struct{}](base, cfg)
	}
	key := func(c, k int) uint64 { return (uint64(c)<<32 | uint64(k)) * 0x9E3779B97F4A7C15 << 1 }
	homeless := make(map[uint64]bool) // what a caller would put on its denylist
	p.m["cuckoo.insert_ns"] = nsPer(n, func() {
		for k := 0; k < p.ps.chainKeys; k++ {
			for c, ch := range chains {
				left, _ := ch.Insert(key(c, k), struct{}{})
				for _, e := range left {
					homeless[e.Key] = true
				}
			}
		}
	})
	var kicks, places, transforms uint64
	tables, load := 0, 0.0
	for _, ch := range chains {
		kicks += ch.Kicks()
		places += ch.Placements()
		transforms += ch.Transformations()
		tables += ch.Tables()
		load += ch.OverallLoadRate()
	}
	p.m["cuckoo.kicks_per_placement"] = float64(kicks) / float64(places)
	p.m["cuckoo.transformations"] = float64(transforms)
	p.m["cuckoo.tables_per_chain"] = float64(tables) / float64(len(chains))
	p.m["cuckoo.load_rate"] = load / float64(len(chains))

	// Lookups address (chain, key) pairs drawn up front.
	type pick struct {
		c int
		k uint64
	}
	rng := hashutil.NewRNG(p.seed ^ 0xc0c0)
	ps := make([]pick, n)
	for i := range ps {
		c := rng.Intn(p.ps.chains)
		ps[i] = pick{c, key(c, rng.Intn(p.ps.chainKeys))}
	}
	missing := 0
	p.m["cuckoo.lookup_hit_ns"] = nsPer(n, func() {
		for _, x := range ps {
			if !chains[x.c].Contains(x.k) {
				missing++
			}
		}
	})
	// A key the chain could not place is legitimately absent from it.
	expectMissing := 0
	for _, x := range ps {
		if homeless[x.k] {
			expectMissing++
		}
	}
	p.check(missing == expectMissing)
	found := 0
	p.m["cuckoo.lookup_miss_ns"] = nsPer(n, func() {
		for _, x := range ps {
			if chains[x.c].Contains(x.k | 1) {
				found++
			}
		}
	})
	p.check(found == 0)
	deleted := 0
	p.m["cuckoo.delete_ns"] = nsPer(n, func() {
		for k := 0; k < p.ps.chainKeys; k++ {
			for c, ch := range chains {
				left, ok := ch.Delete(key(c, k))
				if ok {
					deleted++
				}
				for _, e := range left {
					homeless[e.Key] = true
				}
			}
		}
	})
	p.check(deleted+len(homeless) >= n)
}

// ---- core ----

// add counts a workload round's checks into the probes' own.
func (p *probes) add(rs roundStats) {
	p.attempted += rs.attempted
	p.failed += rs.failed
}

// core measures the engine alone, with the workloads' own loops: the
// three tasks of lib_basic, and lib_chained_read's calls one kind per pass.
func (p *probes) core() {
	in := genLibBasic(p.seed, sizes{libScale: p.ps.coreScale})
	rs, phases := threeTasks(in, 0, nil, func(g *cuckoograph.Graph) {
		st := g.Stats()
		p.m["core.struct_bytes_per_edge"] = float64(g.MemoryUsage()) / float64(st.Edges)
		p.m["core.lcht_load_rate"] = st.LCHTLoadRate
		p.m["core.chained_node_frac"] = float64(st.Chains) / float64(st.Nodes)
		p.m["core.denylist_len"] = float64(st.LDLLen + st.SDLLen)
	})
	p.add(rs)
	p.m["core.insert_ns"] = float64(phases[0].Nanoseconds()) / float64(len(in.stream))
	p.m["core.query_ns"] = float64(phases[1].Nanoseconds()) / float64(len(in.stream))
	p.m["core.delete_ns"] = float64(phases[2].Nanoseconds()) / float64(len(in.distinct))

	cin := genChainedRead(p.seed, sizes{chainedSources: p.ps.chainedSrc, chainedDegree: 512, chainedOps: p.ps.chainedOps})
	cg := cin.load()
	bad := 0
	pass := func(kind chainedOp, ops []chainedOp) float64 {
		return nsPer(len(ops), func() {
			for _, op := range ops {
				i, j := op.indexes()
				if !cin.read(cg, kind, i, j) {
					bad++
				}
			}
		})
	}
	p.m["core.chained_hit_ns"] = pass(readHit, cin.ops)
	p.m["core.chained_miss_ns"] = pass(readMiss, cin.ops)
	p.m["core.chained_degree_ns"] = pass(readDegree, cin.ops)
	scans := cin.ops[:max(1, len(cin.ops)/64)]
	p.m["core.chained_scan_ns_per_edge"] = pass(readScan, scans) / float64(cin.degree)

	// The contrast that a chain-walk change must not move: the same
	// sources with three successors each, which stay inline, so a hit
	// differs from a chained one only in what follows the L-CHT lookup.
	ig := cuckoograph.New()
	for i, u := range cin.sources {
		for j := 0; j < mixRestGens; j++ {
			ig.InsertEdge(u, cin.successor(i, j))
		}
	}
	p.m["core.inline_hit_ns"] = nsPer(len(cin.ops), func() {
		for _, op := range cin.ops {
			i, j := op.indexes()
			if !ig.HasEdge(cin.sources[i], cin.successor(i, j%mixRestGens)) {
				bad++
			}
		}
	})
	p.check(bad == 0)
}

// batchLevel pushes the durable_ingest batch stream (same seed at every
// level, so the op stream is identical) through apply: it fills the
// window untimed, then times p.ps.batches batches and returns ns per op.
func (p *probes) batchLevel(apply func(core.Batch) core.BatchResult) float64 {
	gen := newWindowGen(p.seed, p.ps.window, p.ps.window)
	b := make(core.Batch, 0, durBatchOps)
	for len(gen.ring) < cap(gen.ring) {
		b = gen.fill(b[:0])
		apply(b)
	}
	bad := 0
	ns := nsPer(p.ps.batches*durBatchOps, func() {
		for i := 0; i < p.ps.batches; i++ {
			b = gen.fill(b[:0])
			res := apply(b)
			if res.Inserted != durBatchOps/2 || res.Deleted != durBatchOps/2 {
				bad++
			}
		}
	})
	p.check(bad == 0)
	return ns
}

// ---- sharded ----

// mixRun issues n calls of the sharded_mixed mix from gen against g and
// returns ns per call and how many results were wrong.
func mixRun(g edgeStore, gen *mixGen, n int) (ns float64, bad int) {
	ns = nsPer(n, func() {
		for i := 0; i < n; i++ {
			kind, u, v := gen.next()
			if !mixApply(g, kind, u, v) {
				bad++
			}
		}
	})
	return ns, bad
}

// mix is mixRun with the result checked.
func (p *probes) mix(g edgeStore, gen *mixGen, n int) float64 {
	ns, bad := mixRun(g, gen, n)
	p.check(bad == 0)
	return ns
}

// sharded measures what the sharded wrapper adds over the engine and
// returns its ns per op on the batch stream.
func (p *probes) sharded() (batchNS float64) {
	sz := sizes{mixSources: p.ps.inlineSrc}
	n := p.ps.mixOps

	// The engine alone on sharded_mixed's graph, then the same single-op
	// stream through sharded.
	cgens := newMixGens(p.seed, sz, 2)
	cg := core.NewGraph(core.Config{})
	for _, m := range cgens {
		for gen := uint64(0); gen < mixRestGens; gen++ {
			for idx := uint64(0); idx < m.n; idx++ {
				cg.InsertEdge(m.u(idx), gen)
			}
		}
	}
	coreNS := p.mix(cg, cgens[0], n)

	gens := newMixGens(p.seed, sz, 2)
	g := sharded.New(sharded.Config{})
	mixPreload(g, gens)
	oneNS := p.mix(g, gens[0], n)
	p.m["sharded.single_added_ns"] = oneNS - coreNS

	// Two workers against one: the aggregate rate over twice the
	// single-worker rate. The best of a few repeats on each side, since
	// the question is what the code allows, not what the box did once.
	best1, best2 := oneNS, 0.0
	for r := 0; r < p.ps.scalingRepeat; r++ {
		best1 = min(best1, p.mix(g, gens[0], n))
		bads := make([]int, len(gens))
		var wg sync.WaitGroup
		t0 := time.Now()
		for w, m := range gens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, bads[w] = mixRun(g, m, n)
			}()
		}
		wg.Wait()
		wall := float64(time.Since(t0).Nanoseconds()) / float64(n) // ns per op per worker
		p.check(bads[0]+bads[1] == 0)
		if best2 == 0 || wall < best2 {
			best2 = wall
		}
	}
	// rate2/(2·rate1) = (2/wall)/(2/best1) = best1/wall.
	p.m["sharded.scaling_eff_w2"] = best1 / best2

	// Copy-on-write: bytes preserved per thousand mutations under a view.
	v := g.Snapshot()
	cow0, mut0 := g.CoWBytes(), g.Mutations()
	p.mix(g, gens[0], n)
	p.m["sharded.cow_bytes_per_kmut"] = float64(g.CoWBytes()-cow0) / (float64(g.Mutations()-mut0) / 1000)
	v.Release()

	opens := make([]float64, p.ps.snapshotOpens)
	for i := range opens {
		t0 := time.Now()
		v := g.Snapshot()
		opens[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		v.Release()
	}
	p.m["sharded.snapshot_open_us"] = median(opens)

	// Batch ladder: the durable_ingest stream through the engine's own
	// ApplyBatch, then through sharded.ApplyBatch without a WAL.
	coreBatchNS := p.batchLevel(core.NewGraph(core.Config{}).ApplyBatch)
	p.m["core.batch512_ns"] = coreBatchNS
	batchNS = p.batchLevel(sharded.New(sharded.Config{}).ApplyBatch)
	p.m["sharded.batch512_added_ns"] = batchNS - coreBatchNS
	return batchNS
}

// ---- wal ----

func (p *probes) wal(shardedBatchNS float64) error {
	dir := filepath.Join(p.dir, "probe-wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	w, err := wal.Open(dir, wal.Options{Sync: walPolicy})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	g := sharded.New(sharded.Config{WAL: w})

	// Batch ladder, level 2: the same stream with the WAL attached.
	before := w.Stats()
	ns := p.batchLevel(g.ApplyBatch)
	after := w.Stats()
	p.m["wal.append_ns_per_op"] = ns - shardedBatchNS
	ops := float64(after.Ops - before.Ops)
	p.m["wal.bytes_per_op"] = float64(after.Bytes-before.Bytes) / ops
	p.m["wal.records_per_kop"] = float64(after.Records-before.Records) / ops * 1000

	t0 := time.Now()
	_, err = wal.Checkpoint(g, w)
	p.m["wal.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	p.check(err == nil)

	// Foreground stall: batch times while a checkpoint runs beside them
	// against batch times with none running.
	gen := newWindowGen(p.seed^1, p.ps.window, p.ps.window)
	gen.next = 1 << 40 // destinations no earlier batch used
	var running atomic.Bool
	var inside, outside []float64
	b := make(core.Batch, 0, durBatchOps)
	one := func() {
		b = b[:0]
		for len(b) < durBatchOps {
			b = append(b, gen.insert())
		}
		during := running.Load()
		t0 := time.Now()
		g.ApplyBatch(b)
		d := float64(time.Since(t0).Nanoseconds())
		if during && running.Load() {
			inside = append(inside, d)
		} else if !during {
			outside = append(outside, d)
		}
	}
	for i := 0; i < p.ps.batches/4; i++ {
		one()
	}
	done := make(chan error, 1)
	running.Store(true)
	go func() {
		_, err := wal.Checkpoint(g, w)
		running.Store(false)
		done <- err
	}()
	for running.Load() {
		one()
	}
	p.check(<-done == nil)
	if len(inside) > 0 {
		p.m["wal.checkpoint_stall_ratio"] = median(inside) / median(outside)
	} else {
		p.m["wal.checkpoint_stall_ratio"] = 1 // the checkpoint finished before one batch did
	}

	// Recovery: a checkpoint plus a tail of log records to replay.
	for i := 0; i < p.ps.recoverTailBatches; i++ {
		one()
	}
	p.check(g.LogErr() == nil)
	p.check(w.Close() == nil)
	rec, st, err := wal.Recover(dir, sharded.Config{})
	if err != nil {
		return fmt.Errorf("wal probe: recover: %w", err)
	}
	p.check(rec.NumEdges() == g.NumEdges() && rec.NumNodes() == g.NumNodes())
	p.m["wal.recover_ms"] = float64(st.Elapsed.Nanoseconds()) / 1e6
	p.m["wal.replay_ops_per_s"] = float64(st.Replay.Records) / st.Elapsed.Seconds()

	// fsync cost of the sandbox's device: diagnostic only, every other
	// WAL in the benchmark runs nosync.
	fdir := filepath.Join(p.dir, "probe-fsync")
	if err := os.Mkdir(fdir, 0o755); err != nil {
		return err
	}
	fw, err := wal.Open(fdir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	var syncs []float64
	deadline := time.Now().Add(p.ps.fsyncBudget)
	for i := 0; i < p.ps.fsyncAppends && (i < 3 || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		err := fw.LogBatch(core.Batch{core.InsertOp(uint64(i), 1)})
		syncs = append(syncs, float64(time.Since(t0).Nanoseconds())/1e3)
		p.check(err == nil)
	}
	p.check(fw.Close() == nil)
	p.m["wal.fsync_p50_us"] = median(syncs)
	return nil
}

// ---- csr and analytics ----

// csrAndAnalytics runs analytics_snapshot's own job traced and reads each
// step's time off its spans.
func (p *probes) csrAndAnalytics() {
	edges := genAnalytics(p.seed, sizes{anScale: p.ps.csrScale})
	g := loadSharded(edges)
	roots := newOracle(edges).topDegree(anRoots)
	steps := map[string][]float64{} // span name → ms per job
	for i := 0; i < p.ps.csrJobs; i++ {
		tr := newTracer()
		jr, _ := runJob(g, roots, tr, i) // a fresh view per job: the index is memoised per view
		for _, s := range tr.spans {
			steps[s.Name] = append(steps[s.Name], float64(s.End-s.Start)/1e6)
		}
		p.m["csr.bytes_per_edge"] = float64(jr.csrBytes) / float64(jr.edges)
		p.check(jr.edges == uint64(len(edges)) && len(jr.pr) > 0 && len(jr.bfs) == len(roots) && jr.comps > 0)
	}
	p.m["csr.build_ms"] = median(steps["View.CSR"])
	p.m["analytics.pagerank_ms"] = median(steps["PageRank"])
	p.m["analytics.bfs_ms"] = median(steps["BFS"])
	p.m["analytics.cc_ms"] = median(steps["ConnectedComponents"])
}

// ---- resp ----

// memConn is an in-memory net.Conn: reads come from a byte slice, writes
// are counted and dropped.
type memConn struct {
	in      []byte
	written int
}

func (c *memConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, net.ErrClosed
	}
	n := copy(b, c.in)
	c.in = c.in[n:]
	return n, nil
}
func (c *memConn) Write(b []byte) (int, error)      { c.written += len(b); return len(b), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// resp pushes the srv_pipeline command bytes through resp.Conn's parser
// and the matching replies through resp.Writer, with no socket and no
// server: what the protocol layer alone costs per command.
func (p *probes) resp() {
	cs := newSrvGen(p.seed, sizes{srvSources: p.ps.srvSources}).stream(p.ps.respCmds, 50, 40, 10)
	n := len(cs.want)
	mc := &memConn{in: cs.enc}
	c := resp.NewConn(mc)
	parsed := 0
	p.m["resp.parse_ns_per_cmd"] = nsPer(n, func() {
		for i := 0; i < n; i++ {
			req, err := c.ReadRequest()
			if err != nil || len(req.Args) < 2 {
				break
			}
			parsed++
		}
	})
	p.check(parsed == n)
	p.m["resp.encode_ns_per_reply"] = nsPer(n, func() {
		for i, want := range cs.want {
			c.W.AppendInt(want)
			if i%pipeDepth == pipeDepth-1 { // the server flushes when a burst drains
				if err := c.Flush(); err != nil {
					break
				}
			}
		}
	})
	p.check(mc.written > 0)
}

// ---- redislike ladder and open-loop sweep ----

// ladder replays one command stream up the serving stack: as engine
// calls on the server's own sharded graph with its WAL attached, then
// over loopback TCP at pipeline depths 256, 16 and 1. What each level
// adds over the one below is that layer's self time per command.
func (p *probes) ladder(sz sizes) error {
	dir := filepath.Join(p.dir, "probe-srv")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	ts, err := startServer(p.ps.srvSources, dir)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer ts.stop()
	gsz := sizes{srvSources: p.ps.srvSources}
	gen := newSrvGen(p.seed, gsz)
	g := ts.gm.Graph()

	// Level "sharded + WAL": the calls the commands turn into.
	cs := gen.stream(p.ps.ladderCmds, 50, 40, 10)
	bad := 0
	engineNS := nsPer(len(cs.calls), func() {
		for i, c := range cs.calls {
			var got int64
			switch c.name {
			case "g.insert":
				got = b2i(g.InsertEdge(c.u, c.v))
			case "g.query":
				got = b2i(g.HasEdge(c.u, c.v))
			default:
				got = int64(g.Degree(c.u))
			}
			if got != cs.want[i] {
				bad++
			}
		}
	})
	p.check(bad == 0 && gen.undo(g, cs))

	// Levels over TCP.
	depth := func(d, n int) (float64, error) {
		cs := gen.stream(n/d*d, 50, 40, 10)
		// Warm the connection's buffers at this depth first.
		if _, err := ts.exchange(cs, 0, d, nil, -1, 0); err != nil {
			return 0, err
		}
		var xerr error
		wrong := int64(0)
		ns := nsPer(len(cs.want)-d, func() {
			for lo := d; lo < len(cs.want) && xerr == nil; lo += d {
				var bad int64
				bad, xerr = ts.exchange(cs, lo, lo+d, nil, -1, 0)
				wrong += bad
			}
		})
		p.check(wrong == 0 && gen.undo(g, cs))
		return ns, xerr
	}
	d256, err := depth(256, p.ps.ladderCmds)
	if err != nil {
		return fmt.Errorf("ladder d256: %w", err)
	}
	before := ts.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d16, err := depth(pipeDepth, p.ps.ladderCmds)
	if err != nil {
		return fmt.Errorf("ladder d16: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	after := ts.counters()
	d1, err := depth(1, p.ps.d1Cmds)
	if err != nil {
		return fmt.Errorf("ladder d1: %w", err)
	}
	p.m["redislike.d256_ns_per_cmd"] = d256
	p.m["redislike.d16_ns_per_cmd"] = d16
	p.m["redislike.d1_ns_per_cmd"] = d1
	p.m["redislike.added_ns_d256"] = d256 - engineNS - p.m["resp.parse_ns_per_cmd"] - p.m["resp.encode_ns_per_reply"]
	p.m["redislike.rtt_added_us_d1"] = (d1 - d256) / 1e3
	// Allocations of the whole process over the depth-16 level, stream
	// generation included: the serving plane's own share is zero when warm.
	p.m["redislike.allocs_per_cmd"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(p.ps.ladderCmds)
	p.m["wal.ops_per_group_commit"] = (after["cg_wal_ops_total"] - before["cg_wal_ops_total"]) /
		max(1, after["cg_wal_group_commits_total"]-before["cg_wal_group_commits_total"])

	// Open-loop sweep: the highest offered rate that keeps the tail
	// within the limit without the backlog growing.
	p.m["benchmark.max_ok_rate"] = 0
	for _, rate := range p.ps.rates {
		n := int(float64(rate) * p.ps.sweepSeconds)
		cs := olStream(gen, sizes{olCmds: n})
		due := olSchedule(gen.rng, n, rate)
		res := ts.openLoop(cs, due, nil, -1, 0)
		if res.err != nil {
			return fmt.Errorf("open-loop sweep at %d/s: %w", rate, res.err)
		}
		p.check(res.bad == 0 && gen.undo(g, cs))
		lat := sortedCopy(res.lat)
		tail := percentile(lat, pickTail(len(lat)))
		// A backlog that grows shows as replies still draining well
		// after the last command was due.
		drained := res.dur-due[n-1] < 20*time.Millisecond
		if rate == sz.olRate {
			d := summariseOpenLoop(res)
			p.m["benchmark.late_p99_us"] = d.lateP99
			p.m["benchmark.backlog_max"] = d.backlogMax
			p.m["benchmark.over_limit_frac"] = d.overLimit
			p.m["benchmark.p999_us"] = d.p999
		}
		if tail > olLimitUS || !drained {
			if rate > sz.olRate {
				break // higher rates only queue more
			}
			continue
		}
		p.m["benchmark.max_ok_rate"] = float64(rate)
	}
	p.m["redislike.cmd_errors"] = float64(ts.errReplies)
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

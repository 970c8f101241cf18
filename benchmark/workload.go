package main

import (
	"time"
)

// blockOps is how many ns-scale calls share one clock reading (and, on a
// traced run, one span): timing each call would cost about as much as the call.
const blockOps = 1024

// sizes fixes every workload's input size and the work of one round.
// They are constants of the benchmark, not tunables: a round is a fixed
// amount of work, and --seconds only decides how many rounds run.
type sizes struct {
	libScale uint64 // dataset.Generate scale of the StackOverflow shape

	chainedSources int // lib_chained_read: sources, each with chainedDegree successors
	chainedDegree  int
	chainedOps     int // read calls per round

	mixSources  int // sharded_mixed: sources (three edges each at rest)
	mixOps      int // single-op calls per round
	mixViewMuts int // mutations between re-opening the live view

	durWindow     int // durable_ingest: live edges in the sliding window
	durNodes      int // source universe the power law draws from
	durBatches    int // 512-op batches per round; one checkpoint ends the round
	durSampleEdge int // edges sampled when comparing the recovered graph

	srvSources int // srv_*: preloaded sources, degree 4 (even) or 12 (odd)
	pipeCmds   int // srv_pipeline: commands per round
	olCmds     int // srv_openloop: commands per round
	olRate     int // srv_openloop: offered commands per second

	anScale uint64 // analytics_snapshot: scale of the NotreDame shape
	anChurn int    // edges swapped out (and as many swapped back) between jobs

	probe probeSizes // inputs of the layer probes of a traced run
}

var fullSizes = sizes{
	libScale:       128,
	chainedSources: 64, chainedDegree: 512, chainedOps: 2 << 20,
	mixSources: 1 << 12, mixOps: 1 << 19, mixViewMuts: 1 << 11,
	durWindow: 1 << 13, durNodes: 1 << 13, durBatches: 2048, durSampleEdge: 10_000,
	srvSources: 1 << 17, pipeCmds: 200_000, olCmds: 25_000, olRate: 50_000,
	anScale: 8, anChurn: 5_000,
	probe: probeSizes{chains: 1024, chainKeys: 512, coreScale: 128, chainedSrc: 64, chainedOps: 256 << 10, inlineSrc: 1 << 18,
		mixOps: 256 << 10, window: 1 << 18, batches: 1024, csrScale: 8, srvSources: 1 << 15, ladderCmds: 64 << 10, d1Cmds: 16 << 10,
		rates: []int{20_000, 50_000, 100_000, 200_000}, sweepSeconds: 0.5, fsyncAppends: 200, fsyncBudget: 500 * time.Millisecond,
		snapshotOpens: 21, csrJobs: 3, recoverTailBatches: 256, respCmds: 128 << 10, scalingRepeat: 3},
}

func (sz sizes) opCounts() map[string]int64 {
	return map[string]int64{
		"lib_basic.scale":            int64(sz.libScale),
		"lib_chained_read.edges":     int64(sz.chainedSources * sz.chainedDegree),
		"lib_chained_read.round_ops": int64(sz.chainedOps),
		"sharded_mixed.edges":        int64(3 * sz.mixSources),
		"sharded_mixed.round_ops":    int64(sz.mixOps),
		"durable_ingest.window":      int64(sz.durWindow),
		"durable_ingest.round_ops":   int64(sz.durBatches * durBatchOps),
		"srv.preload_edges":          int64(sz.srvSources * 8),
		"srv_pipeline.round_cmds":    int64(sz.pipeCmds),
		"srv_openloop.round_cmds":    int64(sz.olCmds),
		"srv_openloop.rate":          int64(sz.olRate),
		"analytics_snapshot.scale":   int64(sz.anScale),
		"analytics_snapshot.churn":   int64(sz.anChurn),
	}
}

// callLatency is the latency sample of a round of single-op calls, which
// are too short to time one by one (a clock reading costs about as much
// as a call): round time ÷ calls, in µs. It is the round's rate turned
// upside down, so on those workloads op_p50_us says nothing ops_per_s
// does not.
func callLatency(dur time.Duration, calls int64) []float64 {
	return []float64{float64(dur.Nanoseconds()) / 1e3 / float64(calls)}
}

// roundStats is what one round of fixed work reports.
type roundStats struct {
	ops       int64         // calls, commands or jobs completed in the timed window
	dur       time.Duration // the timed window
	lat       []float64     // µs per timed unit (see workloadDef.unit)
	attempted int64         // results checked
	failed    int64         // results that were wrong or operations that failed
	walBytes  uint64        // WAL bytes written in the timed window
	walOps    uint64        // mutations the WAL acknowledged in the timed window
}

// system is a built workload: the stack under test plus its inputs.
type system struct {
	// round runs one round of fixed work. Round 0 is the warm-up: it is
	// checked like any other but its times are not reported.
	round func(r int, tr *tracer) roundStats
	// finish runs the checks that need the whole run behind them.
	finish func() (attempted, failed int64)
	// close stops everything the system started and removes its files.
	close func()

	// heapBytes is the live heap the system under test added once built
	// and loaded, with the benchmark's own inputs excluded; heapEdges is
	// the edge count it held at that moment.
	heapBytes, heapEdges uint64
	shards               int
	// extra are diagnostics for the text report, keyed by the issue's
	// metric names; they are not part of the contract's metric set.
	extra map[string]metric
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// inProcShards is the shard count of the in-process sharded.Graph
// workloads: what sharded.New picks by default on the two-processor
// reference box. They run on one processor (workloadDef.procs), where the
// default would be one shard and the code that partitions a batch and
// merges shards into a view would never run.
const inProcShards = 2

// workloadDef names a workload and says how to build it.
type workloadDef struct {
	name string
	why  string
	unit string // what one latency sample times
	// procs is the GOMAXPROCS the workload runs at (fewer on a smaller
	// box): 1 where a second processor would only add hand-offs between
	// threads, whose price is the host's and moves from run to run.
	procs int
	// ballastMB is the size of a block the run holds and never touches,
	// so it is not resident and, holding no pointers, not scanned: it
	// only moves the collector's trigger. The two workloads that write to
	// a graph small enough for the cache allocate 350 MB/s beside 2 MB of
	// live heap; on Go's 4 MB floor the collector would run 200 times a
	// second, as it does beside no real graph, and its overshoot (a heap
	// of 8 to 20 MB from one run of a seed to the next) made peak RSS
	// range over half its median.
	ballastMB int
	// diagnostic workloads run like any other but are not in
	// BENCHMARK.json, so no bound is held against them.
	diagnostic bool
	// build makes inputs from seed and builds the system; dir is a
	// scratch directory of its own for anything it writes.
	build func(seed uint64, sz sizes, dir string) (*system, error)
	// inputHash hashes the generated inputs alone, for the determinism test.
	inputHash func(seed uint64, sz sizes) uint64
}

var workloads = []workloadDef{
	{name: "lib_basic", procs: 1, unit: "call (round time / calls)",
		why:   "the paper's three tasks (insert, query, delete) on the root Graph; cuckoo and core do all the work, every other layer is bypassed",
		build: buildLibBasic, inputHash: hashLibBasic},
	{name: "lib_chained_read", procs: 1, unit: "call (round time / calls)",
		why:   "read-only mix on nodes that all live in S-CHT chains, small enough to stay in the processor's own cache; isolates the chain walk's code path, steady where memory-bound runs are not",
		build: buildChainedRead, inputHash: hashChainedRead},
	{name: "sharded_mixed", procs: 1, ballastMB: 16, unit: "call (round time / calls)",
		why:   "single-op reads and writes on sharded.Graph beside a live view, one caller, all nodes inline and in cache; shows lock, atomic and copy-on-write cost with the chain walk absent",
		build: buildShardedMixed, inputHash: hashShardedMixed},
	{name: "durable_ingest", procs: 1, ballastMB: 16, unit: "ApplyBatch call of 512 ops",
		why:   "512-op batches through sharded plus a nosync WAL with checkpoints, then recovery, on a window that stays in cache; batch path, framing and CRC cost; bypasses resp and redislike",
		build: buildDurableIngest, inputHash: hashDurableIngest},
	{name: "srv_pipeline", procs: 2, unit: "16-command burst round trip",
		why:   "closed loop at pipeline depth 16 over loopback TCP to the RESP server with a nosync WAL; the serving path, where the engine is a small share of the cost",
		build: buildSrvPipeline, inputHash: hashSrvPipeline},
	{name: "srv_openloop", procs: 2, unit: "command, from its due time", diagnostic: true,
		why:   "open loop at 50k commands per second on one connection, each timed from its due time; latency at partial load, with almost no pipelining to coalesce",
		build: buildSrvOpenLoop, inputHash: hashSrvOpenLoop},
	{name: "analytics_snapshot", procs: 1, unit: "snapshot-to-release job",
		why:   "snapshot, CSR build, PageRank, BFS and components on a frozen view between bursts of churn; view, csr and kernels do the work, the probe path almost none",
		build: buildAnalytics, inputHash: hashAnalytics},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEndMetrics are reported by every untraced run, in this order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"heap_bytes_per_edge", "B"},
	{"peak_rss_mb", "MB"},
}

// Package sharded is the concurrent CuckooGraph engine: it hash-
// partitions edges by source node across P independent shards, each a
// private single-writer core.Graph behind its own read-write lock.
//
// Sharding by source node is the natural CuckooGraph partition — all
// state for node u (its L-CHT cell, its S-CHT chain, its denylist
// entries) lives in exactly one core engine, so shards never share
// mutable state and mutations on different shards proceed in parallel:
// a mutation writes nothing outside its shard. The counts are the
// shards' own: NumEdges, NumNodes, Stats and MemoryUsage sum the shard
// engines under their read locks, and Mutations sums per-shard atomics.
//
// Traversal callbacks (ForEachSuccessor, ForEachNode) run on a
// point-in-time copy taken under the shard read lock and invoked after
// the lock is released, so callbacks may freely re-enter the graph —
// including mutating it — without deadlocking on a shard lock.
package sharded

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
)

// Logger receives every successful mutation for durability. Each call
// carries the applied sub-batch of one shard partition and happens
// while the owning shard's write lock is held, immediately after the
// in-memory mutations, so for any one shard (and hence for any one
// source node) the log order equals the application order — which is
// what makes replay deterministic. The batch is the shard's own memory,
// never the caller's, and is valid only for the duration of the call
// (it is a per-shard scratch): a Logger that keeps the ops must copy
// them, as the WAL does.
//
// A plain Logger does all its work in that one call, under the lock:
// the mutating method returns once LogBatch has, so a Logger that
// writes and syncs before returning gives synchronous durability at the
// price of holding the shard — readers included — for the length of the
// I/O. A StagedLogger splits the work so that none of it is I/O.
//
// A Logger is only invoked for mutations that changed the graph:
// duplicate inserts and deletes of absent edges are not logged.
type Logger interface {
	LogBatch(b core.Batch) error
}

// StagedLogger is a Logger whose append has two halves (the WAL is
// one). Under the shard lock only Stage runs: it records the ops, in
// order, in memory and returns. After the lock is released the mutating
// method calls Commit, which returns once everything staged so far is
// durable — so disk latency is never spent under a shard lock, and one
// commit covers whatever other writers staged meanwhile. ApplyBatch,
// InsertEdge and DeleteEdge still return only after the commit; Stage
// and Commit on the Graph let a caller apply a run of mutations now and
// wait once, later.
//
// What changes for readers: between a mutation's unlock and its commit
// it is already visible, so a concurrent HasEdge can observe an edge
// whose commit is still in flight — and will be lost if the process
// dies before it lands. A reader that must not act on such state calls
// Commit itself before it does (the RESP server does, before every
// reply flush).
type StagedLogger interface {
	Logger
	Stage(b core.Batch) error
	Commit() error
}

// logHook is the attached Logger with its two-phase form, if it has
// one, resolved once at SetWAL rather than per mutation.
type logHook struct {
	log    Logger
	staged StagedLogger // nil: stage = LogBatch, commit = nothing
}

// Config tunes a sharded graph.
type Config struct {
	// Core is the per-shard CuckooGraph tuning. Each shard derives a
	// distinct deterministic hash seed from Core.Seed.
	Core core.Config
	// Shards is P, the number of partitions. It is rounded up to a power
	// of two; zero or negative defaults to runtime.GOMAXPROCS(0).
	Shards int
	// WAL, when non-nil, is invoked under the shard lock for every
	// mutation (see Logger and StagedLogger). It can also be attached
	// later with SetWAL.
	WAL Logger
}

// shard is one partition: a private core engine behind its own lock,
// with everything a mutation on it writes. Shards are padded out to
// their own cache lines so lock traffic on one shard does not
// false-share with its neighbours.
type shard struct {
	mu sync.RWMutex
	g  *core.Graph
	// views are the live snapshot views registered on this shard,
	// oldest first. While there are any, mutators (under mu held for
	// writing) hand the engine the shard's copy-on-write hook, which
	// keeps a node's pre-image before an op changes it; see cowHook.
	views []*View
	// viewGen counts changes to the views list; cowU/cowGen memoise
	// the last source node preserved into every live view, so the
	// bursts of consecutive same-source ops that real edge streams
	// produce skip the per-view overlay probes after the first op.
	// All three are guarded by mu held for writing.
	viewGen uint64
	cowU    uint64
	cowGen  uint64
	// muts counts the mutations applied on this shard (not ops
	// attempted). It is written under mu and read without it: see
	// Mutations.
	muts atomic.Uint64
	// cow is the shard's copy-on-write store (see cowStore), which
	// outlives views.
	cow *cowStore
	// The one free word: with it the fields fill the two cache lines
	// exactly, 24 + 8 + 24 + 24 + 8 + 8 + 8 + 24 = 128. A new per-shard
	// value takes its place.
	_ [8]byte
	// applied is the scratch a partition's applied ops are collected
	// into for the Logger (under mu held for writing; see applyToShard).
	applied core.Batch
}

// Graph is a concurrency-safe CuckooGraph partitioned by source node.
// Every count of its contents, and every copy-on-write cost, lives in
// the shards; the counters here belong to the snapshot subsystem.
type Graph struct {
	shards []shard
	mask   uint64

	// wal is the attached durability hook; nil disables logging. It is
	// swapped atomically so SetWAL is safe against in-flight mutations.
	wal atomic.Pointer[logHook]

	// logErr is the first error the Logger reported, sticky until SetWAL.
	logErr atomic.Pointer[error]

	// snapMu fences snapshots against multi-shard batches. A batch that
	// spans shards applies its partitions under separate shard-lock
	// acquisitions, so per-shard locking alone would let a freeze land
	// between two partitions and observe a half-applied batch. Multi-shard
	// ApplyBatch holds snapMu for reading across all its partitions;
	// Snapshot holds it for writing while registering the view, making
	// every batch atomic with respect to every snapshot. Single-shard
	// batches are already atomic under their one shard lock and skip it.
	snapMu sync.RWMutex

	// epoch stamps snapshots; it only ever grows. liveViews counts
	// unreleased views; the csr trio is documented on ViewStats. None
	// of them is written by a mutation.
	epoch         atomic.Uint64
	liveViews     atomic.Int64
	csrBuilds     atomic.Uint64
	csrBuildNanos atomic.Uint64
	csrBytes      atomic.Int64
}

// ShardCount normalises a requested shard count: zero or negative means
// runtime.GOMAXPROCS(0), and the result is rounded up to a power of two.
func ShardCount(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns an empty sharded graph.
func New(cfg Config) *Graph {
	p := ShardCount(cfg.Shards)
	g := &Graph{shards: make([]shard, p), mask: uint64(p - 1)}
	base := cfg.Core.Defaults()
	for i := range g.shards {
		g.shards[i].cow = &cowStore{}
		g.shards[i].cow.hook = g.cowHook(i)
		sc := base
		// Distinct per-shard seeds keep hash layouts independent while
		// staying deterministic for a given Config.
		sc.Seed = base.Seed + uint64(i)*0x9E3779B97F4A7C15
		g.shards[i].g = core.NewGraph(sc)
	}
	if cfg.WAL != nil {
		g.SetWAL(cfg.WAL)
	}
	return g
}

// SetWAL attaches (or, with nil, detaches) the durability hook. Only
// mutations that start after SetWAL returns are guaranteed to be
// logged, so attach the WAL before the graph takes writes — or take a
// checkpoint right after attaching to capture pre-existing edges.
// Swapping the hook clears LogErr: a sticky failure belongs to the
// logger that produced it, not to its healthy replacement.
func (g *Graph) SetWAL(l Logger) {
	if l == nil {
		g.wal.Store(nil)
	} else {
		h := &logHook{log: l}
		h.staged, _ = l.(StagedLogger)
		g.wal.Store(h)
	}
	g.logErr.Store(nil)
}

// stage hands the applied sub-batch of one shard partition to the
// attached Logger's first half. It runs under the owning shard's write
// lock.
func (g *Graph) stage(h *logHook, b core.Batch) {
	var err error
	if h.staged != nil {
		err = h.staged.Stage(b)
	} else {
		err = h.log.LogBatch(b)
	}
	if err != nil {
		g.setLogErr(err)
	}
}

// setLogErr makes err sticky unless an earlier one already is. Its own
// function so that the boxed copy is allocated on the error path only.
func (g *Graph) setLogErr(err error) { g.logErr.CompareAndSwap(nil, &err) }

// commit waits out the Logger's second half, if it has one, and
// reports the sticky error. Once an error is sticky nothing further
// can be made durable, so there is nothing to wait for.
func (g *Graph) commit(h *logHook) error {
	if h.staged != nil && g.logErr.Load() == nil {
		if err := h.staged.Commit(); err != nil {
			g.setLogErr(err)
		}
	}
	return g.LogErr()
}

// Commit returns once every mutation staged so far — by Stage, or by a
// concurrent writer that has released its shard lock — is durable per
// the attached Logger's policy, and reports the first error the Logger
// has returned, if any. With no Logger, or a plain one-method Logger
// (which did everything at stage time), there is nothing to wait for.
func (g *Graph) Commit() error {
	if h := g.wal.Load(); h != nil {
		return g.commit(h)
	}
	return nil
}

// LogErr returns the first error the attached Logger reported, if any.
// Once a WAL errors (disk full, I/O failure) the in-memory graph keeps
// serving but its durability guarantee is void; servers should surface
// this to clients.
func (g *Graph) LogErr() error {
	if p := g.logErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Load reads a basic-variant snapshot (the format of core.Graph.Save)
// into a fresh sharded graph. Snapshots round-trip across shard counts:
// a snapshot written by a 1-shard graph loads into a P-shard graph and
// vice versa.
func Load(r io.Reader, cfg Config) (*Graph, error) {
	g := New(cfg)
	// Feed the snapshot through the batch path: loading is the textbook
	// burst, and chunking amortizes lock traffic.
	c := core.NewChunker(LoadBatchSize, func(b core.Batch) { g.ApplyBatch(b) })
	if err := core.ReadBasicSnapshot(r, func(u, v uint64) error {
		c.Insert(u, v)
		return nil
	}); err != nil {
		return nil, err
	}
	c.Flush()
	return g, nil
}

// LoadBatchSize chunks bulk ingestion paths (snapshot load, WAL
// replay): big enough to amortize per-partition overhead, small enough
// to keep the working set cache-resident.
const LoadBatchSize = 4096

// Shards returns P, the number of partitions.
func (g *Graph) Shards() int { return len(g.shards) }

// shardIndex picks u's partition from the same splitmix64 finaliser
// (hashutil.Key64) the core probe path hashes keys with, so sequential
// node ids spread evenly across shards. The shard assignment is
// bit-identical to the pre-Key64 inline mix.
func (g *Graph) shardIndex(u uint64) int {
	return int(hashutil.Key64(u) & g.mask)
}

func (g *Graph) shardOf(u uint64) *shard { return &g.shards[g.shardIndex(u)] }

// maxAppliedScratch caps, in ops, the per-shard applied-ops scratch a
// partition leaves behind: it is there for the small batches of the
// serving path (a G.MINSERT's pairs), and a bulk partition that outgrows
// it allocates its own, as it always did, rather than pin 24 bytes an op
// on every shard.
const maxAppliedScratch = 64

// applyToShard is the one mutation path of the sharded engine: it
// applies a batch whose ops all hash to shard si under a single
// write-lock acquisition, stages the applied sub-batch with the Logger
// as one call, and counts the applied mutations on the shard. When live
// snapshot views exist, the engine calls the shard's copy-on-write hook
// ahead of every op that changes a node (see cowHook) — that, and
// nothing else, is the copy-on-write cost of a view. The Logger's
// commit is the caller's business, after the unlock.
func (g *Graph) applyToShard(si int, part core.Batch) core.BatchResult {
	sh := &g.shards[si]
	sh.mu.Lock()
	var before func(u uint64, deg int) []uint64
	if len(sh.views) > 0 {
		before = sh.cow.hook
	}
	var res core.BatchResult
	if h := g.wal.Load(); h == nil {
		res = sh.g.ApplyBatchFunc(part, before, nil)
	} else {
		// Collect into the shard's scratch, so the Logger never sees the
		// caller's memory; a partition too big for it gets a buffer of
		// its own, lazily — partitions full of duplicate inserts apply
		// nothing and should not pay for one.
		small := len(part) <= maxAppliedScratch
		var applied core.Batch
		if small {
			applied = sh.applied[:0]
		}
		res = sh.g.ApplyBatchFunc(part, before, func(op core.Op) {
			if applied == nil {
				applied = make(core.Batch, 0, len(part))
			}
			applied = append(applied, op)
		})
		if len(applied) > 0 {
			g.stage(h, applied)
		}
		if small {
			sh.applied = applied
		}
	}
	if n := res.Applied(); n > 0 {
		sh.muts.Add(n)
	}
	sh.mu.Unlock()
	return res
}

// Mutations returns the number of applied mutations over the graph's
// lifetime. It is monotonic: any write that changed the graph moves it,
// even when NumEdges/NumNodes end up back where they were — the
// property durability hand-off checks rely on. It sums the shards'
// counters without a lock; each only grows, so a later call never reads
// less than an earlier one.
func (g *Graph) Mutations() uint64 {
	var n uint64
	for i := range g.shards {
		n += g.shards[i].muts.Load()
	}
	return n
}

// ApplyBatch applies the ops of b in order, partitioned by shard: each
// shard's sub-batch runs under one lock acquisition (in parallel across
// shards when the batch spans several) and is logged to the WAL as one
// record. Ops for the same source node always share a shard, so their
// relative order — the order that determines the outcome of interleaved
// inserts and deletes — is preserved; the result is logically identical
// to applying the ops one by one. It returns once the batch is durable
// per the Logger's policy: ApplyBatch is Stage followed by Commit.
func (g *Graph) ApplyBatch(b core.Batch) core.BatchResult {
	res := g.Stage(b)
	g.Commit()
	return res
}

// Stage is ApplyBatch without the wait: the batch is applied, visible
// to readers and, with a StagedLogger attached, recorded in the log's
// memory in apply order — but not yet durable. The caller owes a Commit
// before it acknowledges the batch to anyone. With a plain Logger (or
// none) Stage is all of ApplyBatch.
func (g *Graph) Stage(b core.Batch) core.BatchResult {
	if len(b) == 0 {
		return core.BatchResult{}
	}
	// Single-shard fast path: size-1 batches (the single-edge methods)
	// and node-local bursts skip the partition allocation entirely.
	first := g.shardIndex(b[0].U)
	single := true
	for i := 1; i < len(b); i++ {
		if g.shardIndex(b[i].U) != first {
			single = false
			break
		}
	}
	if single {
		return g.applyToShard(first, b)
	}
	// The batch spans shards, so its partitions apply under separate
	// lock acquisitions; holding snapMu for reading across all of them
	// keeps the whole batch atomic with respect to snapshots and
	// checkpoints (a freeze waits the batch out, and vice versa).
	g.snapMu.RLock()
	defer g.snapMu.RUnlock()
	// Two-pass partition: count, carve one backing array into per-shard
	// windows, fill. The count pass hashes each op's source node once
	// and memoises the shard index, so the fill pass is a plain array
	// read — one Key64 per op for the whole carve instead of one per
	// pass. Four allocations total however many shards the batch
	// touches — per-shard append-with-growth would pay an allocation
	// chain per shard and dominate medium batches.
	counts := make([]int, len(g.shards))
	idxs := make([]uint32, len(b))
	for i, op := range b {
		si := g.shardIndex(op.U)
		idxs[i] = uint32(si)
		counts[si]++
	}
	backing := make(core.Batch, 0, len(b))
	parts := make([]core.Batch, len(g.shards))
	active := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		active++
		parts[i] = backing[len(backing) : len(backing) : len(backing)+c]
		backing = backing[:len(backing)+c]
	}
	for i, op := range b {
		si := idxs[i]
		parts[si] = append(parts[si], op)
	}
	var total core.BatchResult
	// Fan out across shards only when the parallelism can pay for the
	// goroutine churn: each partition must carry real work and there
	// must be more than one processor to run them on. Otherwise apply
	// partitions sequentially — still one lock acquisition per shard.
	if runtime.GOMAXPROCS(0) == 1 || len(b) < active*minParallelPartition {
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			r := g.applyToShard(i, part)
			total.Inserted += r.Inserted
			total.Deleted += r.Deleted
			total.Updated += r.Updated
		}
		return total
	}
	results := make([]core.BatchResult, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part core.Batch) {
			defer wg.Done()
			results[i] = g.applyToShard(i, part)
		}(i, part)
	}
	wg.Wait()
	for _, r := range results {
		total.Inserted += r.Inserted
		total.Deleted += r.Deleted
		total.Updated += r.Updated
	}
	return total
}

// minParallelPartition is the mean ops per touched shard below which
// ApplyBatch applies partitions inline rather than spawning goroutines.
const minParallelPartition = 128

// InsertEdge adds ⟨u,v⟩, reporting whether it is new. It is a size-1
// ApplyBatch: the batch stays on the stack, because the Logger is only
// ever handed the shard's own copy of what applied.
func (g *Graph) InsertEdge(u, v uint64) bool {
	b := [1]core.Op{core.InsertOp(u, v)}
	return g.ApplyBatch(b[:]).Inserted == 1
}

// HasEdge reports whether ⟨u,v⟩ is stored.
func (g *Graph) HasEdge(u, v uint64) bool {
	sh := g.shardOf(u)
	sh.mu.RLock()
	ok := sh.g.HasEdge(u, v)
	sh.mu.RUnlock()
	return ok
}

// DeleteEdge removes ⟨u,v⟩, reporting whether it existed. Like
// InsertEdge it is a size-1 ApplyBatch.
func (g *Graph) DeleteEdge(u, v uint64) bool {
	b := [1]core.Op{core.DeleteOp(u, v)}
	return g.ApplyBatch(b[:]).Deleted == 1
}

// ForEachSuccessor calls fn for each successor of u until fn returns
// false. The successors are copied under the shard read lock and fn is
// invoked after it is released, so fn may re-enter the graph.
func (g *Graph) ForEachSuccessor(u uint64, fn func(v uint64) bool) {
	for _, v := range g.AppendSuccessors(u, nil) {
		if !fn(v) {
			return
		}
	}
}

// Successors returns u's successors as a fresh slice.
func (g *Graph) Successors(u uint64) []uint64 {
	return g.AppendSuccessors(u, nil)
}

// AppendSuccessors appends u's successors to dst and returns the
// extended slice, copying under the shard read lock. Callers that
// reuse dst across calls get an allocation-free scan once the scratch
// has grown to the working set — the serving plane's neighbor reads
// lean on this.
func (g *Graph) AppendSuccessors(u uint64, dst []uint64) []uint64 {
	sh := g.shardOf(u)
	sh.mu.RLock()
	dst = sh.g.AppendSuccessors(u, dst)
	sh.mu.RUnlock()
	return dst
}

// AppendNodes appends every node with at least one out-edge to dst and
// returns the extended slice, copying each shard's node set under its
// read lock. Like AppendSuccessors, reusing dst amortizes the scan to
// zero allocations.
func (g *Graph) AppendNodes(dst []uint64) []uint64 {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		sh.g.ForEachNode(func(u uint64) bool {
			dst = append(dst, u)
			return true
		})
		sh.mu.RUnlock()
	}
	return dst
}

// Degree returns u's out-degree. It reads the owning engine's
// population counters under the shard read lock — no adjacency
// iteration, no allocation.
func (g *Graph) Degree(u uint64) int {
	sh := g.shardOf(u)
	sh.mu.RLock()
	n := sh.g.Degree(u)
	sh.mu.RUnlock()
	return n
}

// ForEachNode calls fn for every node with at least one out-edge. Each
// shard's node set is copied under its read lock and fn runs unlocked,
// so fn may re-enter the graph.
func (g *Graph) ForEachNode(fn func(u uint64) bool) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		var nodes []uint64
		sh.g.ForEachNode(func(u uint64) bool {
			nodes = append(nodes, u)
			return true
		})
		sh.mu.RUnlock()
		for _, u := range nodes {
			if !fn(u) {
				return
			}
		}
	}
}

// NumEdges returns the number of distinct stored edges: the shard
// engines' own counts, summed.
func (g *Graph) NumEdges() uint64 { return g.sum((*core.Graph).NumEdges) }

// NumNodes returns the number of distinct source nodes, summed as
// NumEdges is.
func (g *Graph) NumNodes() uint64 { return g.sum((*core.Graph).NumNodes) }

// MemoryUsage returns the structural bytes summed across shards.
func (g *Graph) MemoryUsage() uint64 { return g.sum((*core.Graph).MemoryUsage) }

// sum adds f over the shard engines, each read under its shard's read
// lock.
func (g *Graph) sum(f func(*core.Graph) uint64) uint64 {
	var total uint64
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		total += f(sh.g)
		sh.mu.RUnlock()
	}
	return total
}

// Stats merges the structural counters of every shard (see
// core.Stats.Add).
func (g *Graph) Stats() core.Stats {
	var merged core.Stats
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		merged.Add(sh.g.Stats())
		sh.mu.RUnlock()
	}
	return merged
}

// Save writes a snapshot in the basic-variant format of core.Graph.Save.
// It is a consistent cut even under concurrent mutation: the graph is
// frozen only for the brief view registration, and View.Save — the one
// whole-graph serializer — streams from the frozen view while writers
// proceed.
func (g *Graph) Save(w io.Writer) error {
	v := g.Snapshot()
	defer v.Release()
	return v.Save(w)
}

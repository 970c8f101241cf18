package sharded

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/csr"
	"cuckoograph/internal/graphstore"
)

// View is an immutable, cross-shard-consistent snapshot of a Graph,
// stamped with the monotonic epoch at which it was taken.
//
// Taking a view copies nothing: Snapshot briefly freezes every shard in
// shard order (an O(P) registration, no data movement) and the view
// initially aliases the live cuckoo tables. From then on the shards
// copy on write, lazily and at L-CHT cell granularity: the first
// mutation that changes a source node u after the view's epoch first
// preserves u's adjacency into the view's per-shard overlay. The engine
// asks for the copy from inside its one probe (the shard's cowHook), once
// it knows the op is effective, so a duplicate insert or a delete of an
// absent edge copies nothing, and nothing a write stream never changes
// is ever copied. One preserved pre-image is shared by every live view
// that needs it, so N views cost one copy per changed node, not N.
// Pre-images are cut from the shard's copy-on-write store (cowStore),
// which outlives views: its chunks are recycled when the shard's last
// live view is released, and a released view's overlay map is kept for
// the next view, so a steady snapshot → write → release cycle allocates
// nothing but the view itself.
//
// Reads resolve the overlay first and fall through to the engine the
// shard held at the epoch (under the shard's read lock) for untouched
// nodes, so a view is always bit-identical to the graph as it stood at
// the view's epoch while writers proceed at full speed — a Replace
// included. Release drops the view from every shard's registry and
// hands back what it pinned: its overlay maps go back to the shards for
// reuse, and so do the pre-image chunks of every shard it was the last
// live view on. Using a view after Release panics.
//
// View implements graphstore.Store so the whole analytics suite runs on
// frozen views; its mutating methods panic.
type View struct {
	g     *Graph
	epoch uint64
	nodes uint64
	edges uint64

	// engines[i] is the core engine shard i held at the view's epoch.
	// Every view read goes through it, not the shard's current engine,
	// so a Replace after the epoch leaves the view exact.
	engines []*core.Graph

	// overlays[i] is the copy-on-write state for shard i: the frozen
	// adjacency of every node shard i mutated since the view's epoch. A
	// nil/empty slice records that the node did not exist at the epoch.
	// Entries are written by mutators under the shard's write lock and
	// read by view readers under its read lock.
	overlays []map[uint64][]uint64

	// csrOnce/csrIdx memoize the compiled CSR index of the view's
	// epoch: built lazily by the first analytics pass that asks (see
	// CSR), shared by every subsequent one, and dropped when the last
	// reference releases so a bounded snapshot ring holds a bounded
	// number of compiled epochs.
	csrOnce  sync.Once
	csrIdx   atomic.Pointer[csr.Index]
	csrBytes int64 // the index's MemoryBytes: its share of ViewStats.CSRBytes

	// refs counts the holders of the view: 1 at birth for the taker,
	// plus one per Retain. The view is dropped from the shard
	// registries when the count reaches zero, so a shared holder (a
	// server's snapshot ring, an in-flight analytics pass) can Release
	// independently without pulling the view out from under the others.
	refs atomic.Int64
}

// Compile-time wiring: a frozen view is a Store, so internal/analytics
// runs on it unchanged.
var (
	_ graphstore.Store   = (*View)(nil)
	_ graphstore.Indexed = (*View)(nil)
	_ csr.Source         = (*View)(nil)
)

// Snapshot returns a consistent frozen view of the whole graph. The
// freeze is brief — every shard's write lock is taken in shard order,
// the view is registered, and the locks are released before Snapshot
// returns; no edge data is copied. Multi-shard batches are excluded for
// the duration (see snapMu), so a view can never observe a half-applied
// ApplyBatch. The caller must Release the view when done with it.
func (g *Graph) Snapshot() *View {
	v, _ := g.SnapshotCut(nil)
	return v
}

// Epoch returns the epoch of the most recently taken snapshot; the next
// snapshot is stamped with a strictly greater value.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// LiveViews returns how many unreleased views currently exist.
func (g *Graph) LiveViews() int { return int(g.liveViews.Load()) }

// CoWBytes returns the cumulative bytes of adjacency pre-images copied
// on behalf of live views over the graph's lifetime — the total
// copy-on-write cost of the snapshot subsystem. Each preserved node
// costs 16 bytes of overlay entry plus 8 per frozen successor (16 + 8·d
// for a node of degree d), regardless of how many views share the
// pre-image; a mutation that changes nothing costs 0. The count says
// what was copied, not what was allocated: the copies land in chunks
// the shards recycle (see cowStore).
func (g *Graph) CoWBytes() uint64 {
	var n uint64
	for i := range g.shards {
		n += g.shards[i].cow.copied.Load()
	}
	return n
}

// ViewStats groups the snapshot-subsystem counters into one read — the
// export hook behind the server's /metrics endpoint and g.info. Each
// field is an independent atomic load; no shard lock is taken, so a
// scrape never queues behind writers.
type ViewStats struct {
	Epoch     uint64 // epoch of the most recently taken snapshot
	LiveViews int    // unreleased views currently pinning CoW state
	CoWBytes  uint64 // cumulative copy-on-write bytes preserved for views

	CSRBuilds     uint64 // epochs compiled by View.CSR since the graph was created
	CSRBuildNanos uint64 // time those builds took, summed
	CSRBytes      uint64 // csr.Index.MemoryBytes summed over unreleased compiled views
}

// ViewStats returns the snapshot/CoW counters.
func (g *Graph) ViewStats() ViewStats {
	return ViewStats{Epoch: g.Epoch(), LiveViews: g.LiveViews(), CoWBytes: g.CoWBytes(),
		CSRBuilds: g.csrBuilds.Load(), CSRBuildNanos: g.csrBuildNanos.Load(), CSRBytes: uint64(g.csrBytes.Load())}
}

// SnapshotCut takes a snapshot, invoking cut (if non-nil) inside the
// freeze window — every shard's write lock held, multi-shard batches
// excluded — before the view exists; a failing cut takes no snapshot.
// Because mutations are staged with the WAL under a shard's write lock,
// which cannot be held while the freeze is, and the rotation writes out
// everything staged before it seals the segment, a cut that rotates
// the WAL partitions the log exactly: every record staged before the
// freeze lands in segments older than the rotation — committed by its
// writer yet or not — every record after in newer ones, and the view
// holds precisely the old segments. That is the contract
// snapshot-plus-log-tail recovery and the replication bootstrap depend
// on. The freeze covers only the cut: View.Save afterwards holds no
// shard lock across an emit, so however long it takes stalls no writer.
func (g *Graph) SnapshotCut(cut func() error) (v *View, err error) {
	g.frozen(func() {
		if cut != nil {
			if err = cut(); err != nil {
				return
			}
		}
		v = &View{
			g:        g,
			epoch:    g.epoch.Add(1),
			engines:  make([]*core.Graph, len(g.shards)),
			overlays: make([]map[uint64][]uint64, len(g.shards)),
		}
		v.refs.Store(1)
		// Every shard lock is held, so the counts summed here are the
		// epoch's exactly.
		for i := range g.shards {
			sh := &g.shards[i]
			v.engines[i] = sh.g
			v.nodes += sh.g.NumNodes()
			v.edges += sh.g.NumEdges()
			v.overlays[i] = sh.cow.takeMap()
			sh.views = append(sh.views, v)
			sh.viewGen++
		}
		g.liveViews.Add(1)
	})
	return v, err
}

// frozen runs f inside the freeze SnapshotCut and Replace share:
// multi-shard batches excluded (snapMu) and every shard's write lock
// held, taken in shard order.
func (g *Graph) frozen(f func()) {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	for i := range g.shards {
		g.shards[i].mu.Lock()
	}
	defer func() {
		for i := range g.shards {
			g.shards[i].mu.Unlock()
		}
	}()
	f()
}

// Replace makes src's contents the graph's, in place: inside the freeze
// SnapshotCut takes, each shard takes src's engine — and with it the
// engine's edge and node counts — so a shard lock hold or a multi-shard
// batch sees the old contents or src's, never a mix. The handle keeps
// its epoch counter, its Logger and its live views; a view reads the
// engines it froze (View.engines), so it stays exact. Mutations moves
// by src's count plus one (on shard 0's counter), so even an empty src
// shows as a change. Replace logs nothing. src is consumed: it must
// have no live views and no other user. A src with a different shard
// count is refused and nothing changes. Every shard's store drops its
// chunks: the views it unregisters keep their pre-images through their
// own overlay maps, which the garbage collector then owns, and no later
// release may recycle them.
func (g *Graph) Replace(src *Graph) error {
	if len(src.shards) != len(g.shards) {
		return fmt.Errorf("sharded: replace a %d-shard graph with a %d-shard one", len(g.shards), len(src.shards))
	}
	g.frozen(func() {
		for i := range g.shards {
			sh := &g.shards[i]
			sh.g, src.shards[i].g = src.shards[i].g, nil
			sh.views = nil
			sh.viewGen++
			sh.cow.chunks = nil
		}
		g.shards[0].muts.Add(src.Mutations() + 1)
	})
	return nil
}

// cowHook builds shard si's copy-on-write hook, the before argument of
// core.Graph.ApplyBatchFunc while the shard has live views. The engine
// calls it under the shard's write lock, ahead of each op that changes
// node u and for no other, and fills the slice it returns with u's deg
// successors. One pre-image, cut from the shard's store, is shared by
// every view that lacks u —
// correct for each, because a node changed since a view's epoch would
// already be in its overlay; that lookup is also the only dedupe. A node
// that did not exist (deg 0) is recorded as a nil pre-image.
func (g *Graph) cowHook(si int) func(u uint64, deg int) []uint64 {
	sh := &g.shards[si]
	st := sh.cow
	return func(u uint64, deg int) []uint64 {
		// Memo hit: this exact node was already preserved into every
		// current view (viewGen pins "current"), which real streams'
		// same-source bursts make the common case.
		if sh.cowGen == sh.viewGen && sh.cowU == u {
			return nil
		}
		sh.cowU, sh.cowGen = u, sh.viewGen
		var pre []uint64
		copied := false
		for _, v := range sh.views {
			ov := v.overlays[si]
			if _, ok := ov[u]; ok {
				continue
			}
			if !copied {
				if deg > 0 {
					pre = st.alloc(deg)
				}
				st.copied.Add(16 + 8*uint64(deg))
				copied = true
			}
			ov[u] = pre
		}
		return pre
	}
}

// dropView unregisters v from every shard. Pre-image capture stops as
// soon as each shard's registry entry is gone, and under the same lock
// the shard's store takes back v's overlay map. It recycles its chunks
// only once no view is live on the shard; while one is, the chunks may
// hold pre-images that view needs, so the store hands them to the
// garbage collector and starts a new list. A view a Replace already
// unregistered is left to the garbage collector.
func (g *Graph) dropView(v *View) {
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		if j := slices.Index(sh.views, v); j >= 0 {
			sh.views = slices.Delete(sh.views, j, j+1)
			sh.viewGen++
			sh.cow.keepMap(v.overlays[i])
			v.overlays[i] = nil
			if len(sh.views) == 0 {
				sh.cow.recycle()
			} else {
				sh.cow.chunks = nil
			}
		}
		sh.mu.Unlock()
	}
	g.liveViews.Add(-1)
}

// chunkWords is the size of a copy-on-write chunk (4 KiB); a pre-image
// larger than that gets a chunk of its own size.
const chunkWords = 512

// maxFreeChunks bounds the recycled chunks a shard keeps (128 KiB): a
// burst of copies past it leaves the excess to the garbage collector.
const maxFreeChunks = 32

// maxSpareEntries bounds the overlay map a shard keeps for its next
// view (grow-then-shrink, as resp.Writer.Reset does): a view that
// outlived a large write burst must not pin its map forever.
const maxSpareEntries = 1 << 12

// cowStore is one shard's copy-on-write memory, kept across views and
// written only under the shard's write lock. Pre-images are cut from
// the tail of a list of chunks. Every view that references a chunk was
// live on the shard when the chunk was written, so once no view is
// live the whole list is recycled.
type cowStore struct {
	hook   func(u uint64, deg int) []uint64 // cowHook, built once: a closure per write would allocate
	chunks [][]uint64                       // len of each: the words handed out; the last is being filled
	free   [][]uint64                       // recycled chunks, at most maxFreeChunks
	spare  map[uint64][]uint64              // a released view's cleared overlay map
	copied atomic.Uint64                    // the shard's share of CoWBytes, read without the lock
}

// alloc cuts an n-word pre-image from the tail chunk, starting a chunk
// (a recycled one if there is one) when the tail has no room. The
// result's capacity is exactly n.
func (st *cowStore) alloc(n int) []uint64 {
	k := len(st.chunks)
	if k == 0 || cap(st.chunks[k-1])-len(st.chunks[k-1]) < n {
		var w []uint64
		switch f := len(st.free); {
		case n > chunkWords:
			w = make([]uint64, 0, n)
		case f > 0:
			w, st.free = st.free[f-1], st.free[:f-1]
		default:
			w = make([]uint64, 0, chunkWords)
		}
		st.chunks = append(st.chunks, w)
	}
	c := &st.chunks[len(st.chunks)-1]
	m := len(*c)
	*c = (*c)[:m+n]
	return (*c)[m : m+n : m+n]
}

// recycle moves the chunk list into the free list, up to its bound; the
// caller guarantees no live view references any of it.
func (st *cowStore) recycle() {
	for _, w := range st.chunks {
		if cap(w) == chunkWords && len(st.free) < maxFreeChunks {
			st.free = append(st.free, w[:0])
		}
	}
	if cap(st.chunks) > maxFreeChunks {
		st.chunks = nil // a burst's long list is not kept either
		return
	}
	clear(st.chunks)
	st.chunks = st.chunks[:0]
}

// takeMap returns the spare overlay map, or a new one.
func (st *cowStore) takeMap() map[uint64][]uint64 {
	if m := st.spare; m != nil {
		st.spare = nil
		return m
	}
	return make(map[uint64][]uint64)
}

// keepMap clears a released view's overlay map and keeps it as the
// spare, unless it grew past maxSpareEntries.
func (st *cowStore) keepMap(m map[uint64][]uint64) {
	if len(m) <= maxSpareEntries {
		clear(m)
		st.spare = m
	}
}

// Epoch returns the snapshot epoch the view was stamped with.
func (v *View) Epoch() uint64 { return v.epoch }

// Retain adds a reference to the view, so a second holder (an
// analytics pass sharing a server's retained snapshot, say) can use it
// while the first is free to Release at any time. Every Retain must be
// paired with a Release. Retaining an already-released view panics.
func (v *View) Retain() {
	for {
		n := v.refs.Load()
		if n <= 0 {
			panic("sharded: Retain of released View")
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return
		}
	}
}

// Release drops one reference. When the last holder releases, the
// shards stop preserving pre-images for the view and take back what it
// pinned: each overlay map, cleared, becomes its shard's spare for the
// next view, and a shard with no live view left recycles its pre-image
// chunks (one with views left hands them to the garbage collector). Extra Releases beyond the reference count are ignored; any
// read of a fully released view panics.
func (v *View) Release() {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return
		}
		if !v.refs.CompareAndSwap(n, n-1) {
			continue
		}
		if n == 1 {
			v.g.dropView(v)
			// The compiled index dies with the view's last reference:
			// even a holder that (erroneously) keeps the *View alive no
			// longer pins the flat arrays, so the server's snapshot ring
			// bounds CSR memory exactly as it bounds CoW state.
			if v.csrIdx.Swap(nil) != nil {
				v.g.csrBytes.Add(-v.csrBytes)
			}
		}
		return
	}
}

func (v *View) check() {
	if v.refs.Load() <= 0 {
		panic("sharded: use of released View")
	}
}

// NumEdges returns the number of distinct edges at the view's epoch.
func (v *View) NumEdges() uint64 { v.check(); return v.edges }

// NumNodes returns the number of distinct source nodes at the epoch.
func (v *View) NumNodes() uint64 { v.check(); return v.nodes }

// HasEdge reports whether ⟨u,w⟩ was stored at the view's epoch.
func (v *View) HasEdge(u, w uint64) bool {
	v.check()
	si := v.g.shardIndex(u)
	sh := &v.g.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if succ, ok := v.overlays[si][u]; ok {
		for _, x := range succ {
			if x == w {
				return true
			}
		}
		return false
	}
	return v.engines[si].HasEdge(u, w)
}

// ForEachSuccessor calls fn for each successor u had at the view's
// epoch until fn returns false. Like the live graph's traversals, the
// successors are resolved under the shard read lock and fn runs after
// it is released, so fn may re-enter the graph or the view.
func (v *View) ForEachSuccessor(u uint64, fn func(w uint64) bool) {
	for _, w := range v.successorsShared(u) {
		if !fn(w) {
			return
		}
	}
}

// Successors returns u's successors at the view's epoch as a fresh
// slice the caller owns, matching the live graph's Successors.
func (v *View) Successors(u uint64) []uint64 {
	succ := v.successorsShared(u)
	if len(succ) == 0 {
		return nil
	}
	return append([]uint64(nil), succ...)
}

// successorsShared resolves u's successors, possibly aliasing the
// frozen pre-image that every live view of u shares. Internal read
// paths iterate it and must never mutate it — handing it to a caller
// who might (the exported Successors) requires a copy.
func (v *View) successorsShared(u uint64) []uint64 {
	succ, _ := v.successorsInto(u, nil)
	return succ
}

// successorsInto is successorsShared with a reusable scratch buffer for
// the fall-through copy. fromOverlay tells the caller whether the
// result aliases a shared frozen pre-image — which must never be
// recycled as scratch, or the next append would clobber the pre-image
// under every other live view.
func (v *View) successorsInto(u uint64, scratch []uint64) (succ []uint64, fromOverlay bool) {
	v.check()
	si := v.g.shardIndex(u)
	sh := &v.g.shards[si]
	sh.mu.RLock()
	succ, fromOverlay = v.overlays[si][u]
	if !fromOverlay {
		succ = v.engines[si].AppendSuccessors(u, scratch[:0])
	}
	sh.mu.RUnlock()
	return succ, fromOverlay
}

// Degree returns u's out-degree at the view's epoch, without
// materialising the successor list.
func (v *View) Degree(u uint64) int {
	v.check()
	si := v.g.shardIndex(u)
	sh := &v.g.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if succ, ok := v.overlays[si][u]; ok {
		return len(succ)
	}
	// Untouched cell: the frozen engine's O(R) population counters are
	// the view's truth too.
	return v.engines[si].Degree(u)
}

// ForEachNode calls fn for every node that had at least one out-edge at
// the view's epoch. Per shard, the frozen node set is resolved under
// the read lock and fn runs unlocked.
func (v *View) ForEachNode(fn func(u uint64) bool) {
	v.check()
	for si := range v.g.shards {
		for _, u := range v.shardNodes(si, nil) {
			if !fn(u) {
				return
			}
		}
	}
}

// shardNodes resolves shard si's node set at the view's epoch: the
// frozen engine's nodes not overridden by the overlay, plus the overlaid nodes that
// existed at the epoch (non-empty pre-image). Any node whose membership
// changed after the epoch was necessarily mutated, hence overlaid, so
// the merge is exact. The set is appended to dst.
func (v *View) shardNodes(si int, dst []uint64) []uint64 {
	sh := &v.g.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ov, eng := v.overlays[si], v.engines[si]
	// An upper bound on the epoch's node set: at most one allocation under the lock.
	nodes := slices.Grow(dst, int(eng.NumNodes())+len(ov))
	eng.ForEachNode(func(u uint64) bool {
		if _, overlaid := ov[u]; !overlaid {
			nodes = append(nodes, u)
		}
		return true
	})
	for u, succ := range ov {
		if len(succ) > 0 {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// CSR returns the compiled compressed-sparse-row index of the view's
// epoch, building it on first call (all later callers share the same
// index; the build is guarded by sync.Once so concurrent analytics
// passes trigger exactly one compile). The build reads only frozen
// state through ScanShard — a shard's read lock is held once to list
// its node ids and then for at most scanChunk nodes' successor copies at
// a time, never across two chunks — so writers keep landing while an
// epoch compiles. The build is counted in ViewStats, and the index is
// released with the view's last Release. CSR implements
// graphstore.Indexed, which is how the analytics kernels discover it.
func (v *View) CSR() *csr.Index {
	v.check()
	v.csrOnce.Do(func() {
		start := time.Now()
		idx := csr.Build(v)
		v.csrBytes = int64(idx.MemoryBytes())
		v.g.csrBuilds.Add(1)
		v.g.csrBuildNanos.Add(uint64(time.Since(start)))
		v.g.csrBytes.Add(v.csrBytes)
		v.csrIdx.Store(idx)
	})
	idx := v.csrIdx.Load()
	if idx == nil {
		panic("sharded: use of released View")
	}
	return idx
}

// ShardCount implements csr.Source: the number of partitions.
func (v *View) ShardCount() int { v.check(); return len(v.g.shards) }

// scanChunk is how many nodes ScanShard copies per hold of the shard's
// read lock.
const scanChunk = 512

// ScanShard implements csr.Source: shard si's nodes at the view's epoch
// and their successors, copied out flat. The node ids are listed under
// one hold of the shard's read lock (8 bytes a node, no probe, as
// ForEachNode does); the adjacency is then copied scanChunk nodes per
// hold, each node re-probed, so a writer waits for a copy bounded by the
// chunk and never by the shard. One node's copy is the unit that cannot
// be split. A node a writer changes between two holds is by then in the
// overlay with its frozen pre-image, so the scan stays exact.
func (v *View) ScanShard(si int, sc *csr.ShardScan) {
	v.check()
	sc.Nodes = v.shardNodes(si, sc.Nodes[:0])
	sc.Counts, sc.Succs = sc.Counts[:0], sc.Succs[:0]
	sh, eng := &v.g.shards[si], v.engines[si]
	for rest := sc.Nodes; len(rest) > 0; {
		chunk := rest[:min(scanChunk, len(rest))]
		rest = rest[len(chunk):]
		sh.mu.RLock()
		ov := v.overlays[si]
		for _, u := range chunk {
			n0 := len(sc.Succs)
			if pre, ok := ov[u]; ok { // an empty overlay answers before hashing
				sc.Succs = append(sc.Succs, pre...)
			} else {
				sc.Succs = eng.AppendSuccessors(u, sc.Succs)
			}
			sc.Counts = append(sc.Counts, int32(len(sc.Succs)-n0))
		}
		sh.mu.RUnlock()
	}
}

// MemoryUsage reports the bytes the view itself pins: its overlay
// entries and frozen pre-images (the copy-on-write footprint), not the
// live structure it aliases.
func (v *View) MemoryUsage() uint64 {
	v.check()
	var total uint64
	for si := range v.g.shards {
		sh := &v.g.shards[si]
		sh.mu.RLock()
		for _, succ := range v.overlays[si] {
			total += 16 + 8*uint64(len(succ))
		}
		sh.mu.RUnlock()
	}
	return total
}

// InsertEdge panics: views are read-only.
func (v *View) InsertEdge(u, w uint64) bool { panic("sharded: InsertEdge on read-only View") }

// DeleteEdge panics: views are read-only.
func (v *View) DeleteEdge(u, w uint64) bool { panic("sharded: DeleteEdge on read-only View") }

// Save writes the view in the basic-variant snapshot format of
// core.Graph.Save — the same bytes a Save of the live graph at the
// view's epoch would have produced — without holding any shard lock
// across the serialization. It is the one way whole-graph state leaves
// the process: Graph.Save, wal.Checkpoint and the replication bootstrap
// all take a view (wal.CutView when a WAL rotation must partition the
// log against it) and stream it from here, to a file or a socket, while
// writers proceed.
func (v *View) Save(w io.Writer) error {
	v.check()
	return core.WriteBasicSnapshot(w, v.edges, func(emit func(u, x uint64) error) error {
		var scratch []uint64
		for si := range v.g.shards {
			nodes := v.shardNodes(si, nil)
			// Deterministic output: a given epoch always serializes the
			// same bytes, whatever the overlay iteration order.
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			for _, u := range nodes {
				succ, fromOverlay := v.successorsInto(u, scratch)
				if !fromOverlay {
					scratch = succ // safe to recycle: it is our own buffer
				}
				for _, x := range succ {
					if err := emit(u, x); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

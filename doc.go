// Package cuckoograph is a Go implementation of CuckooGraph, the
// scalable and space-time efficient data structure for large-scale
// dynamic graphs from the ICDE 2025 paper of the same name
// (arXiv:2405.15193).
//
// CuckooGraph replaces the adjacency list / CSR foundations of dynamic
// graph stores with a hierarchy of cuckoo hash tables:
//
//   - a large cuckoo hash table (L-CHT) maps each source node u to a
//     cell whose Part 2 holds up to 2R neighbour ids inline;
//   - nodes whose degree outgrows the inline slots transform the cell:
//     where the paper draws R large slots pointing at small cuckoo hash
//     tables, the cell keeps one word naming the node's S-CHT chain,
//     whose up to R tables grow and shrink by a fixed rule
//     (TRANSFORMATION, Table II of the paper), so space tracks the live
//     degree of every node;
//   - insertion failures from cuckoo kick wars land in small bounded
//     denylists (DENYLIST) that are drained back on every expansion.
//
// The result is O(1) edge insertion, query and deletion with a bounded
// number of memory accesses, and space proportional to the number of
// live edges — no resizing stalls, no pointer-chasing adjacency walks.
//
// # Probe path
//
// A point operation walks L-CHT bucket → u's cell, which holds the
// node's small slots by value → (for a chained u) chain registry → chain
// header → S-CHT bucket, once. An S-CHT chain is one 64-byte object
// that holds its first table by value and points at the shape every
// S-CHT of the graph shares, so two dependent loads lead from the cell
// to a bucket; later tables sit in one array of 40-byte records behind
// it.
//
// Each operation hashes u once and, on a chained node, v once (the
// splitmix64 finaliser, 64 bits); every table of a chain derives its
// two bucket indexes from that one value by remixing it with a
// per-table seed, so a chain-wide probe costs one hash however many
// tables it touches. The mutation path reuses the probe of its
// duplicate check: an insert places with the hash the check computed,
// a delete clears the cell the check found, and the S-DL is walked
// only for a node that has an entry in it, which a per-node count says
// without looking at the list.
//
// Each cell carries a one-byte fingerprint tag derived from the same
// hash (zero marks an empty cell), and a bucket's tags are packed into
// a word stored immediately before the bucket's keys: a probe loads
// the tag word, rejects non-matching cells with a SWAR broadcast-XOR
// zero-byte scan, and verifies the surviving candidate against the
// full stored key. Tags only pre-filter — the key compare decides — so
// a tag collision costs one extra compare and can never produce a
// wrong result; kicked cells carry their tag byte with them, and since
// the tag is a pure function of the key's hash, merges re-derive the
// identical tag when re-homing entries. The read path (HasEdge, Degree,
// ForEachSuccessor, and the analytics iteration on top) and every
// mutation that transforms no table perform zero heap allocations.
//
// # Quick start
//
//	g := cuckoograph.New()
//	g.InsertEdge(1, 2)
//	g.HasEdge(1, 2)        // true
//	g.Successors(1)        // [2]
//	g.DeleteEdge(1, 2)
//
// Use NewWeighted for streams with duplicate edges (each edge carries a
// multiplicity weight, §III-B of the paper) and NewMulti for
// property-graph workloads where several distinct edges connect the same
// node pair (§V-G). Graph, Weighted and Multi are the engine's own types
// (aliases of internal/core's), so a call on them is a call on the engine.
//
// # Concurrency
//
// Graph, Weighted and Multi are single-writer structures. For shared
// use, NewSafe returns a SafeGraph backed by the sharded concurrent
// engine: edges are hash-partitioned by source node across
// Options.ShardCount shards (rounded up to a power of two, defaulting
// to runtime.GOMAXPROCS(0)), each shard a private CuckooGraph behind
// its own read-write lock. All state for a node u — its L-CHT cell and
// its S-CHT chain — lives in exactly one shard, so mutations on
// different shards proceed fully in parallel and queries take only the
// owning shard's read lock. A mutation writes nothing outside its
// shard: NumEdges, NumNodes, Stats and MemoryUsage sum the shards' own
// counts under their read locks; Save serializes a consistent cut
// from a frozen view without holding shard locks across the write, and
// snapshots round-trip across different shard counts (and to/from the
// single-writer Graph format).
//
// Traversal callbacks (ForEachSuccessor, ForEachNode) run on a
// point-in-time copy taken under the shard read lock and invoked after
// it is released, so callbacks may re-enter — and even mutate — the
// graph without deadlocking. SafeGraph.BFS and SafeGraph.PageRank each
// run on a frozen view taken for the call, so their result is of one
// epoch even while writers proceed.
//
// # Snapshots
//
// SafeGraph.Snapshot returns a FrozenView: an immutable, cross-shard-
// consistent snapshot stamped with a monotonic epoch. Opening one
// copies nothing — the graph briefly freezes each shard to register the
// view, then lazily copies-on-write only the adjacency cells later
// mutations actually touch, at L-CHT cell granularity, sharing each
// pre-image across all live views. Long analytics passes
// (FrozenView.BFS, FrozenView.PageRank) therefore run on a stable
// point-in-time graph without ever blocking writers. Call Release when
// done so the graph stops preserving state for the view.
//
// Frozen views also satisfy the graphstore.Indexed capability: the
// first analytics pass against a view compiles it into a compressed-
// sparse-row index (internal/csr — a node-id dictionary plus flat
// offsets/edges arrays, built shard-parallel off the frozen view
// without stalling writers), memoizes it on the view, and every kernel
// in internal/analytics then runs over flat dense-id arrays instead of
// per-edge store probes — an order of magnitude faster on traversal-
// heavy passes. The index is freed with the view's last Release.
//
// # Durability and replication
//
// internal/wal makes the sharded engine durable: a segmented,
// CRC-framed write-ahead log with group commit, checkpoint snapshots
// and crash recovery. The same log doubles as a replication stream —
// wal.Reader tails durable frames, retention Pins keep compaction
// behind connected followers, and internal/redislike ships the log to
// read replicas over RESP (g.replicate / g.replack; cgserver
// -replica-of). See README.md § Replication for the consistency
// contract.
//
// The internal packages also contain from-scratch implementations of the
// paper's baselines (LiveGraph, Sortledton, Wind-Bell Index, Spruce),
// the graph analytics suite (BFS, SSSP, TC, CC, PageRank, BC, LCC), synthetic dataset generators matching Table IV,
// a Redis-like RESP server with a CuckooGraph module and a Neo4j-like
// property-graph engine — everything cmd/cgbench needs to regenerate
// the paper's evaluation (§V) on synthetic data; the internal/dataset
// package comment gives the substitution rationale. Every other
// measurement comes from the repo benchmark, benchmark/run.sh.
package cuckoograph

package sharded

import (
	"sync"
	"sync/atomic"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
)

// opCounter is a StagedLogger that only counts what it is handed. It is
// safe for concurrent use and allocates nothing.
type opCounter struct{ staged, commits atomic.Uint64 }

func (c *opCounter) LogBatch(b core.Batch) error { c.staged.Add(uint64(len(b))); return nil }
func (c *opCounter) Stage(b core.Batch) error    { return c.LogBatch(b) }
func (c *opCounter) Commit() error               { c.commits.Add(1); return nil }

// plainLogger exposes only LogBatch of the Logger it wraps, so the graph
// treats it as a one-method Logger.
type plainLogger struct{ Logger }

// nodesOnShard returns n node ids that all hash to shard si.
func nodesOnShard(g *Graph, si, n int) []uint64 {
	var nodes []uint64
	for u := uint64(1); len(nodes) < n; u++ {
		if g.shardIndex(u) == si {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// TestCountsUnderConcurrentWriters: with one writer per shard, mixing
// single-edge calls and batches through a StagedLogger, a concurrent
// reader never sees Mutations go down and every view it takes holds
// exactly the edges and nodes its counts claim. At the end the counts
// equal a map oracle's, Stats agrees, and the Logger was handed every
// applied mutation once.
func TestCountsUnderConcurrentWriters(t *testing.T) {
	const shards, nodesPerShard, succs, rounds = 4, 48, 24, 1500
	const maxNodes, maxEdges = shards * nodesPerShard, shards * nodesPerShard * succs
	log := &opCounter{}
	g := New(Config{Shards: shards, WAL: log})

	oracles := make([]refModel, shards)
	applied := make([]uint64, shards)
	var writers sync.WaitGroup
	for w := range shards {
		oracles[w] = refModel{}
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			m, rng, nodes := oracles[w], hashutil.NewRNG(uint64(w)+1), nodesOnShard(g, w, nodesPerShard)
			has := func(u, v uint64) bool { _, ok := m[u][v]; return ok }
			op := func() core.Op {
				u, v := nodes[rng.Intn(len(nodes))], uint64(rng.Intn(succs))
				if rng.Intn(3) == 0 || !has(u, v) {
					return core.InsertOp(u, v)
				}
				return core.DeleteOp(u, v)
			}
			for range rounds {
				var b core.Batch
				if rng.Intn(2) == 0 {
					b = core.Batch{op()}
				} else {
					for range 1 + rng.Intn(24) {
						b = append(b, op())
					}
				}
				var want uint64
				for _, o := range b {
					if has(o.U, o.V) == (o.Kind == core.OpDelete) {
						want++
					}
					m.apply(core.Batch{o})
				}
				var got uint64
				switch {
				case len(b) > 1:
					got = g.ApplyBatch(b).Applied()
				case b[0].Kind == core.OpInsert && g.InsertEdge(b[0].U, b[0].V),
					b[0].Kind == core.OpDelete && g.DeleteEdge(b[0].U, b[0].V):
					got = 1
				}
				if got != want {
					t.Errorf("writer %d: %d of %+v applied, oracle says %d", w, got, b, want)
					return
				}
				applied[w] += got
			}
		}(w)
	}

	stop := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		var last uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := g.Mutations()
			if m < last {
				t.Errorf("Mutations went from %d to %d", last, m)
				return
			}
			last = m
			// Two reads are two moments, so only bounds hold between
			// them; a count that wrapped below zero breaks them.
			if e, n := g.NumEdges(), g.NumNodes(); e > maxEdges || n > maxNodes {
				t.Errorf("%d edges and %d nodes, bounds %d and %d", e, n, maxEdges, maxNodes)
				return
			}
			if i%64 != 0 {
				continue
			}
			v := g.Snapshot()
			var edges, nodes uint64
			v.ForEachNode(func(u uint64) bool {
				nodes++
				edges += uint64(v.Degree(u))
				return true
			})
			if edges != v.NumEdges() || nodes != v.NumNodes() {
				t.Errorf("view at epoch %d counts %d edges/%d nodes, holds %d/%d",
					v.Epoch(), v.NumEdges(), v.NumNodes(), edges, nodes)
			}
			v.Release()
		}
	}()
	writers.Wait()
	close(stop)
	<-reader
	if t.Failed() {
		return
	}

	var edges, nodes, muts uint64
	for w := range shards {
		_, e := oracles[w].freeze()
		edges, nodes, muts = edges+e, nodes+uint64(len(oracles[w])), muts+applied[w]
	}
	st := g.Stats()
	if g.NumEdges() != edges || g.NumNodes() != nodes || g.Mutations() != muts {
		t.Fatalf("graph counts %d edges/%d nodes/%d mutations, oracle %d/%d/%d",
			g.NumEdges(), g.NumNodes(), g.Mutations(), edges, nodes, muts)
	}
	if st.Edges != edges || st.Nodes != nodes {
		t.Fatalf("Stats counts %d edges/%d nodes, oracle %d/%d", st.Edges, st.Nodes, edges, nodes)
	}
	if log.staged.Load() != muts {
		t.Fatalf("the Logger was handed %d ops for %d mutations", log.staged.Load(), muts)
	}
}

// TestSingleEdgeAllocs pins the single-edge path at zero allocations
// once warm, with no Logger, a plain one and a staged one. InsertEdge
// and DeleteEdge build their size-1 batch on the stack; were it handed
// to the Logger, it would escape and every call would allocate.
func TestSingleEdgeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  func(*opCounter) Logger
	}{
		{"none", func(*opCounter) Logger { return nil }},
		{"plain", func(c *opCounter) Logger { return plainLogger{c} }},
		{"staged", func(c *opCounter) Logger { return c }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &opCounter{}
			g := New(Config{Shards: 2})
			if l := tc.log(c); l != nil {
				g.SetWAL(l)
			}
			g.InsertEdge(1, 1) // the node exists: a toggle never creates or drops a cell
			toggle := func() {
				if !g.InsertEdge(1, 2) || !g.DeleteEdge(1, 2) {
					t.Fatal("toggle failed")
				}
			}
			toggle()
			if a := testing.AllocsPerRun(200, toggle); a != 0 {
				t.Fatalf("warm InsertEdge/DeleteEdge toggle: %v allocs/run, want 0", a)
			}
			// Every call applied: a logged graph handed each op over, and
			// a staged one committed once per call.
			var wantStaged, wantCommits uint64
			if tc.name != "none" {
				wantStaged = g.Mutations()
			}
			if tc.name == "staged" {
				wantCommits = g.Mutations()
			}
			if c.staged.Load() != wantStaged || c.commits.Load() != wantCommits {
				t.Fatalf("the Logger was handed %d ops and %d commits, want %d and %d",
					c.staged.Load(), c.commits.Load(), wantStaged, wantCommits)
			}
		})
	}
}

package sharded

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
)

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16},
	} {
		if got := ShardCount(tc.in); got != tc.want {
			t.Errorf("ShardCount(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := ShardCount(0); got < 1 || got&(got-1) != 0 {
		t.Errorf("ShardCount(0) = %d, want a positive power of two", got)
	}
}

// TestModelConformance drives the sharded graph against a map model
// with a randomized operation stream, for several shard counts.
func TestModelConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		g := New(Config{Shards: shards})
		rng := hashutil.NewRNG(99)
		model := map[[2]uint64]bool{}
		for i := 0; i < 30000; i++ {
			u, v := rng.Uint64n(250), rng.Uint64n(250)
			key := [2]uint64{u, v}
			switch rng.Intn(5) {
			case 0, 1, 2:
				if got, want := g.InsertEdge(u, v), !model[key]; got != want {
					t.Fatalf("shards=%d op %d: InsertEdge(%d,%d) = %v, want %v", shards, i, u, v, got, want)
				}
				model[key] = true
			case 3:
				if got, want := g.DeleteEdge(u, v), model[key]; got != want {
					t.Fatalf("shards=%d op %d: DeleteEdge(%d,%d) = %v, want %v", shards, i, u, v, got, want)
				}
				delete(model, key)
			default:
				if got, want := g.HasEdge(u, v), model[key]; got != want {
					t.Fatalf("shards=%d op %d: HasEdge(%d,%d) = %v, want %v", shards, i, u, v, got, want)
				}
			}
		}
		if int(g.NumEdges()) != len(model) {
			t.Fatalf("shards=%d: NumEdges = %d, want %d", shards, g.NumEdges(), len(model))
		}
		srcs := map[uint64]bool{}
		for key := range model {
			srcs[key[0]] = true
		}
		if int(g.NumNodes()) != len(srcs) {
			t.Fatalf("shards=%d: NumNodes = %d, want %d", shards, g.NumNodes(), len(srcs))
		}
		seen := map[uint64]bool{}
		g.ForEachNode(func(u uint64) bool {
			seen[u] = true
			return true
		})
		if len(seen) != len(srcs) {
			t.Fatalf("shards=%d: ForEachNode visited %d nodes, want %d", shards, len(seen), len(srcs))
		}
		st := g.Stats()
		if st.Edges != g.NumEdges() || st.Nodes != g.NumNodes() {
			t.Fatalf("shards=%d: merged stats %d/%d disagree with counters %d/%d",
				shards, st.Edges, st.Nodes, g.NumEdges(), g.NumNodes())
		}
		if st.Chains == 0 || st.SCHTTables < st.Chains {
			t.Fatalf("shards=%d: merged stats report %d S-CHT tables over %d chains", shards, st.SCHTTables, st.Chains)
		}
		if g.MemoryUsage() == 0 {
			t.Fatalf("shards=%d: MemoryUsage reported zero", shards)
		}
	}
}

// TestConcurrentStress hammers one graph from writer, deleter, query and
// traversal goroutines simultaneously; run under -race this is the
// engine's main memory-safety check.
func TestConcurrentStress(t *testing.T) {
	g := New(Config{Shards: 4})
	const writers, perWriter = 8, 3000

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				g.InsertEdge(base*perWriter+i, i)
				if i%3 == 0 {
					g.DeleteEdge(base*perWriter+i, i)
					g.InsertEdge(base*perWriter+i, i)
				}
			}
		}(uint64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := hashutil.NewRNG(seed)
			for i := 0; i < 5000; i++ {
				u := rng.Uint64n(writers * perWriter)
				g.HasEdge(u, u%perWriter)
				g.Degree(u)
				g.ForEachSuccessor(u, func(uint64) bool { return true })
				_ = g.NumEdges()
				if i%1024 == 0 {
					_ = g.Stats() // full structural scan; keep it off the hot loop
				}
			}
		}(uint64(r) + 7)
	}
	wg.Wait()

	if g.NumEdges() != writers*perWriter {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), writers*perWriter)
	}
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < perWriter; i += 101 {
			if !g.HasEdge(w*perWriter+i, i) {
				t.Fatalf("edge from writer %d missing", w)
			}
		}
	}
}

// TestSnapshotUnderLoad saves while writers keep mutating: the snapshot
// must be internally consistent (header count == record count) and load
// into a graph whose every edge answers HasEdge against the original.
func TestSnapshotUnderLoad(t *testing.T) {
	g := New(Config{Shards: 4})
	for i := uint64(0); i < 5000; i++ {
		g.InsertEdge(i%97, i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.InsertEdge(100000+base*1000000+i, i)
				g.DeleteEdge(100000+base*1000000+i, i)
			}
		}(uint64(w))
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	loaded, err := Load(bytes.NewReader(buf.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() < 5000 {
		t.Fatalf("loaded %d edges, want ≥ 5000", loaded.NumEdges())
	}
	for i := uint64(0); i < 5000; i += 37 {
		if !loaded.HasEdge(i%97, i) {
			t.Fatalf("pre-load edge (%d,%d) missing from snapshot", i%97, i)
		}
	}
}

// TestSnapshotAcrossShardCounts checks 1-shard ↔ P-shard round trips.
func TestSnapshotAcrossShardCounts(t *testing.T) {
	edges := func(g *Graph) map[[2]uint64]bool {
		out := map[[2]uint64]bool{}
		g.ForEachNode(func(u uint64) bool {
			g.ForEachSuccessor(u, func(v uint64) bool {
				out[[2]uint64{u, v}] = true
				return true
			})
			return true
		})
		return out
	}
	src := New(Config{Shards: 1})
	rng := hashutil.NewRNG(5)
	for i := 0; i < 20000; i++ {
		src.InsertEdge(rng.Uint64n(500), rng.Uint64n(500))
	}
	want := edges(src)

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wide, err := Load(bytes.NewReader(buf.Bytes()), Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := edges(wide); len(got) != len(want) {
		t.Fatalf("1→8 shards: %d edges, want %d", len(got), len(want))
	}
	if wide.NumEdges() != src.NumEdges() || wide.NumNodes() != src.NumNodes() {
		t.Fatalf("1→8 shards: counters %d/%d, want %d/%d",
			wide.NumEdges(), wide.NumNodes(), src.NumEdges(), src.NumNodes())
	}

	buf.Reset()
	if err := wide.Save(&buf); err != nil {
		t.Fatal(err)
	}
	narrow, err := Load(bytes.NewReader(buf.Bytes()), Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := edges(narrow)
	if len(got) != len(want) {
		t.Fatalf("8→1 shards: %d edges, want %d", len(got), len(want))
	}
	for key := range want {
		if !got[key] {
			t.Fatalf("8→1 shards: edge %v lost", key)
		}
	}
}

// TestReentrantTraversal verifies that traversal callbacks may mutate
// the graph: snapshot-then-callback iteration must not deadlock.
func TestReentrantTraversal(t *testing.T) {
	g := New(Config{Shards: 2})
	for i := uint64(0); i < 100; i++ {
		g.InsertEdge(i%10, i)
	}
	g.ForEachNode(func(u uint64) bool {
		g.ForEachSuccessor(u, func(v uint64) bool {
			g.InsertEdge(v, u) // reverse edge, same or different shard
			return true
		})
		return true
	})
	if !g.HasEdge(11, 1) {
		t.Fatal("reverse edge missing after reentrant traversal")
	}
}

// TestLoadSurfacesTypedCorruption verifies snapshot restore reports
// damage as core.ErrCorrupt with the byte offset of the first bad
// byte, so WAL recovery and operators can tell "truncated snapshot"
// from ordinary I/O failure.
func TestLoadSurfacesTypedCorruption(t *testing.T) {
	g := New(Config{Shards: 2})
	for i := uint64(0); i < 50; i++ {
		g.InsertEdge(i, i+1)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0, 0, 0, 0}, snap[4:]...)},
		{"truncated mid-edge", snap[:len(snap)-5]},
	} {
		_, err := Load(bytes.NewReader(tc.data), Config{Shards: 2})
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want core.ErrCorrupt", tc.name, err)
		}
		var ce *core.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *core.CorruptError", tc.name, err)
		}
		if tc.name == "truncated mid-edge" && ce.Offset == 0 {
			t.Fatalf("%s: offset = 0, want the offset of the torn edge", tc.name)
		}
	}
}

// walRecorder is a Logger that captures the mutation stream.
type walRecorder struct {
	mu   sync.Mutex
	ops  [][3]uint64 // {op, u, v}; op 0 = insert, 1 = delete
	fail error
}

func (r *walRecorder) LogBatch(b core.Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, op := range b {
		code := uint64(0)
		if op.Kind == core.OpDelete {
			code = 1
		}
		r.ops = append(r.ops, [3]uint64{code, op.U, op.V})
	}
	return r.fail
}

// TestWALHookLogsOnlyMutations verifies the Logger sees exactly the
// state-changing operations, in order, and that logger failures surface
// through LogErr.
func TestWALHookLogsOnlyMutations(t *testing.T) {
	rec := &walRecorder{}
	g := New(Config{Shards: 2, WAL: rec})
	g.InsertEdge(1, 2)
	g.InsertEdge(1, 2) // duplicate: not logged
	g.DeleteEdge(9, 9) // absent: not logged
	g.DeleteEdge(1, 2)
	want := [][3]uint64{{0, 1, 2}, {1, 1, 2}}
	rec.mu.Lock()
	got := append([][3]uint64(nil), rec.ops...)
	rec.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("logged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logged %v, want %v", got, want)
		}
	}
	if err := g.LogErr(); err != nil {
		t.Fatalf("LogErr = %v, want nil", err)
	}

	rec.fail = errors.New("disk full")
	g.InsertEdge(3, 4)
	if err := g.LogErr(); err == nil || err.Error() != "disk full" {
		t.Fatalf("LogErr = %v, want disk full", err)
	}
}

// TestSetWALClearsLogErr: a sticky log failure belongs to the logger
// that produced it — swapping in a healthy logger (or detaching) must
// not keep poisoning mutations.
func TestSetWALClearsLogErr(t *testing.T) {
	rec := &walRecorder{fail: errors.New("disk full")}
	g := New(Config{Shards: 2, WAL: rec})
	g.InsertEdge(1, 2)
	if g.LogErr() == nil {
		t.Fatal("failure not recorded")
	}
	g.SetWAL(&walRecorder{})
	if err := g.LogErr(); err != nil {
		t.Fatalf("LogErr after swap = %v, want nil", err)
	}
	g.InsertEdge(3, 4)
	if err := g.LogErr(); err != nil {
		t.Fatalf("healthy logger poisoned: %v", err)
	}
}

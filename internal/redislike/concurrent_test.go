package redislike

import (
	"bytes"
	"strconv"
	"sync"
	"testing"

	"cuckoograph/internal/sharded"
)

// saveGraph serialises gm's graph the one way whole-graph state leaves
// a process: Graph.Save, a frozen view streamed by View.Save.
func saveGraph(t testing.TB, gm *GraphModule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gm.Graph().Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestConcurrentDispatch drives graph writes and reads from many
// goroutines at once — the workload the per-shard locking design
// exists for. Run under -race this is the server layer's safety check.
func TestConcurrentDispatch(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := strconv.Itoa(base*perWorker + i)
				v := strconv.Itoa(i)
				if got := dispatch(s, "g.insert", u, v); got.Int != 1 {
					t.Errorf("insert (%s,%s) = %+v", u, v, got)
					return
				}
				if got := dispatch(s, "g.query", u, v); got.Type != ':' || got.Int != 1 {
					t.Errorf("g.query (%s,%s) = %+v, want :1", u, v, got)
					return
				}
				dispatch(s, "g.getneighbors", u)
				if i%4 == 0 {
					// u is this iteration's own source: one out-edge, to v.
					if got := dispatch(s, "g.degree", u); got.Type != ':' || got.Int != 1 {
						t.Errorf("g.degree %s = %+v, want :1", u, got)
						return
					}
				}
			}
		}(w)
	}
	// A snapshotter races with the writers; every snapshot must parse.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := gm.Graph().Save(&buf); err != nil {
				t.Errorf("snapshot %d failed to save: %v", i, err)
				return
			}
			if _, err := sharded.Load(&buf, sharded.Config{}); err != nil {
				t.Errorf("snapshot %d failed to load: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	if got := gm.Graph().NumEdges(); got != workers*perWorker {
		t.Fatalf("edges = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w += 3 {
		u := strconv.Itoa(w*perWorker + 1)
		if got := dispatch(s, "g.query", u, "1"); got.Int != 1 {
			t.Fatalf("edge (%s,1) missing after concurrent run", u)
		}
	}
}

// TestInstallGraphDoesNotDropInFlightWrites restores snapshots into the
// SAME module — sharded.Load, then installGraph, the one restore routine —
// while writers keep inserting: once a writer's insert has been
// acknowledged after the final restore, it must be queryable — an
// insert may never land on a discarded pre-restore graph.
func TestInstallGraphDoesNotDropInFlightWrites(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	// Seed a base graph and snapshot it.
	for i := 0; i < 100; i++ {
		dispatch(s, "g.insert", strconv.Itoa(i), strconv.Itoa(i+1))
	}
	snap := saveGraph(t, gm)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			g, err := sharded.Load(bytes.NewReader(snap), sharded.Config{})
			if err != nil {
				t.Errorf("restore %d: %v", i, err)
				return
			}
			gm.installGraph(g)
		}
	}()
	// Writers race with the restores; their edges may legitimately be
	// wiped by a later restore, but must never be lost to a swap.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := strconv.Itoa(1000 + base*1000 + i)
				dispatch(s, "g.insert", u, "7")
			}
		}(w)
	}
	wg.Wait()
	<-done

	// All restores are over; an acknowledged insert must stick now.
	if got := dispatch(s, "g.insert", "999999", "7"); got.Int != 1 {
		t.Fatalf("post-restore insert = %+v", got)
	}
	if got := dispatch(s, "g.query", "999999", "7"); got.Int != 1 {
		t.Fatal("acknowledged insert lost after restores")
	}
	if gm.Graph().NumEdges() < 100 {
		t.Fatalf("base edges missing: %d", gm.Graph().NumEdges())
	}
}

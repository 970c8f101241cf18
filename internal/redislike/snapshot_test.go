package redislike

import (
	"bytes"
	"fmt"
	"testing"

	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
)

func newGraphServer(t *testing.T) (*Server, *GraphModule) {
	t.Helper()
	srv := NewServer()
	gm, mod := NewGraphModule()
	if err := srv.LoadModule(mod); err != nil {
		t.Fatalf("load module: %v", err)
	}
	return srv, gm
}

func mustInt(t *testing.T, v resp.Value) int64 {
	t.Helper()
	if v.Type != ':' {
		t.Fatalf("expected integer reply, got %c %q", v.Type, v.Str)
	}
	return v.Int
}

func bfsNodes(t *testing.T, v resp.Value) []int64 {
	t.Helper()
	if v.Type != '*' {
		t.Fatalf("expected array reply, got %c %q", v.Type, v.Str)
	}
	out := make([]int64, len(v.Array))
	for i, e := range v.Array {
		out[i] = e.Int
	}
	return out
}

func TestSnapshotCommandsTimeTravel(t *testing.T) {
	srv, _ := newGraphServer(t)
	// Path 1→2→3 at epoch A.
	dispatch(srv, "g.minsert", "1", "2", "2", "3")
	e1 := mustInt(t, dispatch(srv, "g.snapshot"))
	if e1 < 1 {
		t.Fatalf("g.snapshot epoch = %d", e1)
	}
	// Extend to 1→2→3→4 at epoch B, then break the old path.
	dispatch(srv, "g.insert", "3", "4")
	e2 := mustInt(t, dispatch(srv, "g.snapshot"))
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	dispatch(srv, "g.del", "1", "2")

	list := dispatch(srv, "g.snapshots")
	if len(list.Array) != 2 || list.Array[0].Int != e1 || list.Array[1].Int != e2 {
		t.Fatalf("g.snapshots = %v, want [%d %d]", list.Array, e1, e2)
	}

	// Time travel: BFS from 1 at each epoch and live.
	if got := bfsNodes(t, dispatch(srv, "graph.bfs", "1", fmt.Sprint(e1))); len(got) != 3 {
		t.Fatalf("graph.bfs at epoch %d reached %v, want 3 nodes", e1, got)
	}
	if got := bfsNodes(t, dispatch(srv, "graph.bfs", "1", fmt.Sprint(e2))); len(got) != 4 {
		t.Fatalf("graph.bfs at epoch %d reached %v, want 4 nodes", e2, got)
	}
	if got := bfsNodes(t, dispatch(srv, "graph.bfs", "1")); len(got) != 1 {
		t.Fatalf("live graph.bfs reached %v, want just the root (1→2 deleted)", got)
	}

	// Unknown epoch errors; release then re-query errors too.
	if v := dispatch(srv, "graph.bfs", "1", "99999"); v.Type != '-' {
		t.Fatalf("graph.bfs on unknown epoch replied %c %q", v.Type, v.Str)
	}
	if n := mustInt(t, dispatch(srv, "g.release", fmt.Sprint(e1))); n != 1 {
		t.Fatalf("g.release existing epoch = %d, want 1", n)
	}
	if n := mustInt(t, dispatch(srv, "g.release", fmt.Sprint(e1))); n != 0 {
		t.Fatalf("g.release released epoch = %d, want 0", n)
	}
	if v := dispatch(srv, "graph.bfs", "1", fmt.Sprint(e1)); v.Type != '-' {
		t.Fatalf("graph.bfs on released epoch replied %c", v.Type)
	}
}

func TestSnapshotRingEvictsOldest(t *testing.T) {
	srv, gm := newGraphServer(t)
	gm.SetSnapshotRing(2)
	dispatch(srv, "g.insert", "1", "2")
	e1 := mustInt(t, dispatch(srv, "g.snapshot"))
	e2 := mustInt(t, dispatch(srv, "g.snapshot"))
	e3 := mustInt(t, dispatch(srv, "g.snapshot"))
	list := dispatch(srv, "g.snapshots")
	if len(list.Array) != 2 || list.Array[0].Int != e2 || list.Array[1].Int != e3 {
		t.Fatalf("ring = %v, want [%d %d] after evicting %d", list.Array, e2, e3, e1)
	}
	if g := gm.Graph(); g.LiveViews() != 2 {
		t.Fatalf("LiveViews = %d, want 2 (evicted view released)", g.LiveViews())
	}
	// Shrinking the ring releases the surplus immediately.
	gm.SetSnapshotRing(1)
	if g := gm.Graph(); g.LiveViews() != 1 {
		t.Fatalf("LiveViews = %d after shrink, want 1", g.LiveViews())
	}
}

func TestGraphPageRankEpochTagged(t *testing.T) {
	srv, _ := newGraphServer(t)
	// Two-node cycle: symmetric ranks of 0.5 each.
	dispatch(srv, "g.minsert", "1", "2", "2", "1")
	e := mustInt(t, dispatch(srv, "g.snapshot"))
	// Skew the live graph afterwards.
	dispatch(srv, "g.minsert", "3", "1", "4", "1", "5", "1", "3", "3", "4", "4", "5", "5")

	v := dispatch(srv, "graph.pagerank", "20", fmt.Sprint(e))
	if v.Type != '*' || len(v.Array) != 4 {
		t.Fatalf("graph.pagerank at epoch %d = %v, want 2 node/rank pairs", e, v.Array)
	}
	if v.Array[0].Int != 1 || v.Array[2].Int != 2 {
		t.Fatalf("pagerank nodes = %v, want 1 and 2", v.Array)
	}
	if v.Array[1].Str != v.Array[3].Str {
		t.Fatalf("symmetric cycle ranks differ: %q vs %q", v.Array[1].Str, v.Array[3].Str)
	}
	live := dispatch(srv, "graph.pagerank", "20")
	if len(live.Array) != 2*5 {
		t.Fatalf("live pagerank covers %d pairs, want 5", len(live.Array)/2)
	}
	if v := dispatch(srv, "graph.pagerank", "0"); v.Type != '-' {
		t.Fatalf("graph.pagerank with 0 iters replied %c", v.Type)
	}
}

func TestReleaseWhileAnalyticsHoldsViewDoesNotPanic(t *testing.T) {
	srv, gm := newGraphServer(t)
	dispatch(srv, "g.minsert", "1", "2", "2", "3")
	e := mustInt(t, dispatch(srv, "g.snapshot"))

	// An in-flight epoch-tagged pass pins the view the way graph.bfs
	// does; releasing the epoch (or evicting it from the ring) must not
	// panic the pass — it drops only the ring's reference.
	s, cleanup, err := gm.analyticsStore(fmt.Sprint(e))
	if err != nil {
		t.Fatalf("analyticsStore: %v", err)
	}
	if n := mustInt(t, dispatch(srv, "g.release", fmt.Sprint(e))); n != 1 {
		t.Fatalf("g.release = %d, want 1", n)
	}
	if !s.HasEdge(1, 2) || !s.HasEdge(2, 3) {
		t.Fatalf("pinned view lost its epoch after g.release")
	}
	cleanup()
	// Now fully released: the epoch is gone for new commands.
	if v := dispatch(srv, "graph.bfs", "1", fmt.Sprint(e)); v.Type != '-' {
		t.Fatalf("released epoch still resolvable: %c", v.Type)
	}
	if gm.Graph().LiveViews() != 0 {
		t.Fatalf("LiveViews = %d after cleanup, want 0", gm.Graph().LiveViews())
	}
}

// TestInstallGraphReleasesRetainedViews: a swap purges exactly the
// replaced graph's ring entries.
func TestInstallGraphReleasesRetainedViews(t *testing.T) {
	srv, gm := newGraphServer(t)
	dispatch(srv, "g.insert", "1", "2")
	mustInt(t, dispatch(srv, "g.snapshot"))
	old := gm.Graph()
	g, err := sharded.Load(bytes.NewReader(saveGraph(t, gm)), sharded.Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	gm.installGraph(g)
	if n := len(dispatch(srv, "g.snapshots").Array); n != 0 {
		t.Fatalf("%d retained views survived a restore", n)
	}
	if old.LiveViews() != 0 {
		t.Fatalf("old graph still has %d live views after restore", old.LiveViews())
	}
}

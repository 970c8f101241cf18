package redislike

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
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

// bfsNodes decodes a graph.bfs reply: an array of node ids, each a
// decimal bulk string like every node-id list on the wire.
func bfsNodes(t *testing.T, v resp.Value) []uint64 {
	t.Helper()
	if v.Type != '*' {
		t.Fatalf("expected array reply, got %c %q", v.Type, v.Str)
	}
	out := make([]uint64, len(v.Array))
	for i, e := range v.Array {
		u, err := strconv.ParseUint(e.Str, 10, 64)
		if e.Type != '$' || err != nil {
			t.Fatalf("BFS element %d = %c %q, want a node id as a bulk string", i, e.Type, e.Str)
		}
		out[i] = u
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
	if v.Array[0].Type != '$' || v.Array[0].Str != "1" || v.Array[2].Type != '$' || v.Array[2].Str != "2" {
		t.Fatalf("pagerank nodes = %v, want bulk 1 and 2", v.Array)
	}
	if v.Array[1].Str != v.Array[3].Str {
		t.Fatalf("symmetric cycle ranks differ: %q vs %q", v.Array[1].Str, v.Array[3].Str)
	}
	live := dispatch(srv, "graph.pagerank", "20")
	if len(live.Array) != 2*5 {
		t.Fatalf("live pagerank covers %d pairs, want 5", len(live.Array)/2)
	}
	// The iteration count is client input: out of range is refused
	// before any work, so one command cannot run without limit.
	for _, iters := range []string{"0", strconv.Itoa(maxPageRankIters + 1), "9223372036854775807"} {
		if v := dispatch(srv, "graph.pagerank", iters); v.Type != '-' || !strings.HasPrefix(v.Str, "ERR graph.pagerank: bad iteration count") {
			t.Fatalf("graph.pagerank with %s iters replied %c %q", iters, v.Type, v.Str)
		}
	}
	if v := dispatch(srv, "graph.pagerank", strconv.Itoa(maxPageRankIters)); v.Type != '*' {
		t.Fatalf("graph.pagerank with %d iters replied %c %q", maxPageRankIters, v.Type, v.Str)
	}
}

// TestAnalyticsRepliesCarryFullNodeIDs: graph.bfs and graph.pagerank
// reply node ids at and above 2⁶³ as the same decimals g.getneighbors
// does, not wrapped into negative integers.
func TestAnalyticsRepliesCarryFullNodeIDs(t *testing.T) {
	srv, _ := newGraphServer(t)
	const u, v = "18446744073709551615", "9223372036854775808"
	dispatch(srv, "g.minsert", u, v, v, u) // a cycle: PageRank ranks only sources
	if got := dispatch(srv, "g.getneighbors", u); len(got.Array) != 1 || got.Array[0].Str != v {
		t.Fatalf("g.getneighbors %s = %+v, want [%s]", u, got, v)
	}
	if got := bfsNodes(t, dispatch(srv, "graph.bfs", u)); len(got) != 2 || got[0] != math.MaxUint64 || got[1] != 1<<63 {
		t.Fatalf("graph.bfs %s = %v, want [%s %s]", u, got, u, v)
	}
	pr := dispatch(srv, "graph.pagerank", "1")
	if pr.Type != '*' || len(pr.Array) != 4 {
		t.Fatalf("graph.pagerank = %+v, want 2 node/rank pairs", pr)
	}
	if a, b := pr.Array[0], pr.Array[2]; a.Type != '$' || a.Str != v || b.Type != '$' || b.Str != u {
		t.Fatalf("graph.pagerank nodes = %+v, %+v, want bulk %s then %s", a, b, v, u)
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

// TestEpochsDoNotRepeatAcrossRestore: a restore keeps the graph's epoch
// counter, so an epoch tag handed out before it can never name a view
// of the restored contents — the next g.snapshot gets a greater epoch,
// and the old one is gone with the emptied ring.
func TestEpochsDoNotRepeatAcrossRestore(t *testing.T) {
	srv, gm := newGraphServer(t)
	dispatch(srv, "g.insert", "1", "2")
	first := mustInt(t, dispatch(srv, "g.snapshot"))
	g, err := sharded.Load(bytes.NewReader(saveGraph(t, gm)), sharded.Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := gm.installGraph(g); err != nil {
		t.Fatalf("install: %v", err)
	}
	second := mustInt(t, dispatch(srv, "g.snapshot"))
	if second <= first {
		t.Fatalf("epoch %d after the restore does not exceed %d before it", second, first)
	}
	if got := dispatch(srv, "g.snapshots").Array; len(got) != 1 || got[0].Int != second {
		t.Fatalf("g.snapshots = %+v, want only [%d]", got, second)
	}
	if v := dispatch(srv, "graph.bfs", "1", fmt.Sprint(first)); v.Type != '-' {
		t.Fatalf("graph.bfs at pre-restore epoch %d = %+v, want an error", first, v)
	}
}

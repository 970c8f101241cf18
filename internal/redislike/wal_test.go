package redislike

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// restart boots a second module over dir, the way cgserver restarts
// with -wal-dir: EnableWAL on a graph nothing has written to.
func restart(t *testing.T, dir string) (*Server, *GraphModule) {
	t.Helper()
	s, gm := newGraphServer(t)
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.CloseWAL() })
	return s, gm
}

// TestWALCommandsRoundTrip drives the durability control plane: enable
// logging, write over the command surface, checkpoint, write more, then
// restart a second module over the directory.
func TestWALCommandsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, gm := newGraphServer(t)
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		u, v := strconv.Itoa(i%50), strconv.Itoa(i)
		if got := dispatch(s, "g.insert", u, v); got.Type != ':' {
			t.Fatalf("g.insert = %+v", got)
		}
	}
	if got := dispatch(s, "checkpoint"); got.Type != '$' || !strings.Contains(got.Str, "checkpoint-") {
		t.Fatalf("checkpoint = %+v", got)
	}
	for i := 500; i < 800; i++ {
		dispatch(s, "g.insert", strconv.Itoa(i%50), strconv.Itoa(i))
	}
	dispatch(s, "g.del", "0", "0")
	wantEdges := gm.Graph().NumEdges()
	if err := gm.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, gm2 := restart(t, dir)
	if gm2.Graph().NumEdges() != wantEdges {
		t.Fatalf("restart recovered %d edges, want %d", gm2.Graph().NumEdges(), wantEdges)
	}
	if v := dispatch(s2, "g.query", "1", "1"); v.Int != 1 {
		t.Fatalf("g.query 1 1 after restart = %+v", v)
	}
	if v := dispatch(s2, "g.query", "0", "0"); v.Int != 0 {
		t.Fatalf("g.query 0 0 after restart = %+v (delete not replayed)", v)
	}
	// One log at a time: a second enable is refused.
	if err := gm2.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncNone}); err == nil {
		t.Fatal("EnableWAL with a log attached succeeded")
	}
}

// TestWALEnableCapturesExistingEdges checks EnableWAL on a non-empty
// graph checkpoints first, so a restart over the directory is complete
// without the caller remembering to snapshot.
func TestWALEnableCapturesExistingEdges(t *testing.T) {
	dir := t.TempDir()
	s, gm := newGraphServer(t)
	dispatch(s, "g.insert", "7", "8")
	if err := gm.EnableWAL(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	dispatch(s, "g.insert", "9", "10")
	if err := gm.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2, _ := restart(t, dir)
	for _, e := range [][2]string{{"7", "8"}, {"9", "10"}} {
		if v := dispatch(s2, "g.query", e[0], e[1]); v.Int != 1 {
			t.Fatalf("edge %v lost across enable-time checkpoint", e)
		}
	}
}

// TestWALCommandErrors covers the argument validation surface, the
// exact refusals of the log commands on a server with no log, and that
// durability is no runtime command: wal_enable and wal_replay are
// unknown.
func TestWALCommandErrors(t *testing.T) {
	s, _ := newGraphServer(t)
	if got := dispatch(s, "checkpoint", "extra"); got.Type != '-' {
		t.Fatalf("checkpoint extra = %+v, want error", got)
	}
	// With no log, nothing is applied and no log fails: ERR, not WALERR.
	for _, c := range []struct{ args, want string }{
		{"checkpoint", "ERR checkpoint: wal not enabled"},
		{"wal_resume", "ERR wal_resume: wal not enabled"},
		{"g.replicate 0 0", "ERR g.replicate: replication requires an enabled wal (start the leader with -wal-dir)"},
	} {
		if got := dispatch(s, strings.Fields(c.args)...); got.Type != '-' || got.Str != c.want {
			t.Fatalf("%s = %+v, want -%s", c.args, got, c.want)
		}
	}
	for _, name := range []string{"wal_enable", "wal_replay"} {
		if got := dispatch(s, name, t.TempDir()); got.Type != '-' || !strings.HasPrefix(got.Str, "ERR unknown command") {
			t.Fatalf("%s = %+v, want unknown command", name, got)
		}
	}
}

// checkpointFiles lists the checkpoint snapshots in dir.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestWALResumeRefusedWhenHealthy: wal_resume leaves degraded mode and
// does nothing else. Resuming detaches the log before it reopens it, and
// on a healthy server a write served in that window would be acked with
// no log behind it; so a healthy server refuses with ERR, keeps the same
// log attached and cuts no checkpoint.
func TestWALResumeRefusedWhenHealthy(t *testing.T) {
	dir := t.TempDir()
	s, gm, _ := startWALServer(t, Config{}, dir, wal.Options{Sync: wal.SyncNone})
	if got := dispatch(s, "g.insert", "1", "2"); got.Int != 1 {
		t.Fatalf("g.insert = %+v", got)
	}
	w, before := gm.walPtr.Load(), checkpointFiles(t, dir)
	if got := dispatch(s, "wal_resume"); got.Type != '-' || !strings.HasPrefix(got.Str, ClassErr+" ") {
		t.Fatalf("wal_resume on a healthy server = %+v, want an ERR reply", got)
	}
	if err := gm.ResumeWAL(); err == nil {
		t.Fatal("ResumeWAL on a healthy server succeeded")
	}
	if gm.walPtr.Load() != w {
		t.Fatal("a refused resume swapped the attached log")
	}
	if after := checkpointFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused resume cut a checkpoint: %v -> %v", before, after)
	}
	if got := dispatch(s, "g.insert", "3", "4"); got.Int != 1 {
		t.Fatalf("g.insert after a refused resume = %+v", got)
	}
}

// TestBootOverDirectoryWritesNoCheckpoint: booting over a directory
// must not rewrite a full snapshot the directory already has — but
// enabling a graph the directory does not describe must checkpoint.
func TestBootOverDirectoryWritesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, gm := newGraphServer(t)
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		dispatch(s, "g.insert", strconv.Itoa(i), strconv.Itoa(i+1))
	}
	if got := dispatch(s, "checkpoint"); got.Type != '$' {
		t.Fatalf("checkpoint = %+v", got)
	}
	if err := gm.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	before := checkpointFiles(t, dir)

	_, gm2 := restart(t, dir)
	if after := checkpointFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("boot rewrote checkpoints: %v -> %v", before, after)
	}
	if n := gm2.Graph().NumEdges(); n != 100 {
		t.Fatalf("boot recovered %d edges, want 100", n)
	}
	if err := gm2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	gm2.Graph().InsertEdge(9999, 9999)
	dir2 := t.TempDir()
	if err := gm2.EnableWAL(dir2, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	if n := checkpointFiles(t, dir2); len(n) != 1 {
		t.Fatalf("fresh dir checkpoints = %v, want exactly one", n)
	}
}

// TestEnableWALOverStaleDirectory: after EnableWAL the directory
// describes exactly the live graph, whatever it held before. A graph
// nothing has written to takes the directory's edges; one that was
// written to — even by writes that cancel out — replaces them.
func TestEnableWALOverStaleDirectory(t *testing.T) {
	seed := func(t *testing.T, edges ...[2]uint64) string {
		t.Helper()
		dir := t.TempDir()
		_, gm := newGraphServer(t)
		if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			gm.Graph().InsertEdge(e[0], e[1])
		}
		if _, err := gm.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := gm.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	recovered := func(t *testing.T, dir string) map[replEdge]bool {
		t.Helper()
		g, _, err := wal.Recover(dir, sharded.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return graphEdges(g)
	}

	t.Run("fresh graph takes the directory", func(t *testing.T) {
		dir := seed(t, [2]uint64{1, 2}, [2]uint64{3, 4})
		_, gm := newGraphServer(t)
		if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		gm.Graph().InsertEdge(5, 6)
		if err := gm.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		live, rec := graphEdges(gm.Graph()), recovered(t, dir)
		want := map[replEdge]bool{{1, 2}: true, {3, 4}: true, {5, 6}: true}
		if !reflect.DeepEqual(live, want) || !reflect.DeepEqual(rec, want) {
			t.Fatalf("live %v, recovered %v; want both %v", live, rec, want)
		}
	})
	t.Run("written graph replaces the directory", func(t *testing.T) {
		dir := seed(t, [2]uint64{1, 2})
		_, gm := newGraphServer(t)
		gm.Graph().InsertEdge(1, 2)
		gm.Graph().DeleteEdge(1, 2)
		if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		if err := gm.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		if rec := recovered(t, dir); len(rec) != 0 {
			t.Fatalf("recovered %v from a graph with no edges", rec)
		}
	})
}

// TestEnableWALAfterListenRefused: durability is fixed at boot, so
// EnableWAL on a listening server fails and attaches nothing.
func TestEnableWALAfterListenRefused(t *testing.T) {
	_, gm, _ := startGraphServer(t, Config{})
	dir := filepath.Join(t.TempDir(), "wal")
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err == nil {
		t.Fatal("EnableWAL after Listen succeeded")
	}
	if gm.walPtr.Load() != nil {
		t.Fatal("a refused EnableWAL left a WAL attached")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused EnableWAL touched its directory (stat err %v)", err)
	}
}

// TestReplicaRefusesLocalWAL: a replica's log is the leader's, so
// EnableWAL refuses a local one just as cgserver's flags do.
func TestReplicaRefusesLocalWAL(t *testing.T) {
	_, gm := newGraphServer(t)
	r := StartReplica(gm, "127.0.0.1:1")
	t.Cleanup(r.Stop)
	dir := filepath.Join(t.TempDir(), "wal")
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); !errors.Is(err, errReplicaLog) {
		t.Fatalf("EnableWAL on a replica = %v, want %v", err, errReplicaLog)
	}
	if gm.walPtr.Load() != nil {
		t.Fatal("a refused EnableWAL left a WAL attached")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused EnableWAL touched its directory (stat err %v)", err)
	}
}

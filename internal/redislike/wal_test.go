package redislike

import (
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cuckoograph/internal/wal"
)

// TestWALCommandsRoundTrip drives the durability control plane over the
// command surface: enable logging, write, checkpoint, write more, then
// boot a second server and wal_replay the directory into it.
func TestWALCommandsRoundTrip(t *testing.T) {
	dir := t.TempDir()

	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if got := dispatch(s, "wal_enable", dir, "nosync"); got.Str != "OK" {
		t.Fatalf("wal_enable = %+v", got)
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

	s2 := NewServer()
	gm2, mod2 := NewGraphModule()
	if err := s2.LoadModule(mod2); err != nil {
		t.Fatal(err)
	}
	got := dispatch(s2, "wal_replay", dir)
	if got.Type != '$' {
		t.Fatalf("wal_replay = %+v", got)
	}
	if gm2.Graph().NumEdges() != wantEdges {
		t.Fatalf("replayed %d edges, want %d (reply %q)", gm2.Graph().NumEdges(), wantEdges, got.Str)
	}
	if v := dispatch(s2, "g.query", "1", "1"); v.Int != 1 {
		t.Fatalf("g.query 1 1 after replay = %+v", v)
	}
	if v := dispatch(s2, "g.query", "0", "0"); v.Int != 0 {
		t.Fatalf("g.query 0 0 after replay = %+v (delete not replayed)", v)
	}

	// Replay must refuse to run once a WAL is attached.
	if got := dispatch(s2, "wal_enable", dir, "nosync"); got.Str != "OK" {
		t.Fatalf("wal_enable on replayed server = %+v", got)
	}
	if got := dispatch(s2, "wal_replay", dir); got.Type != '-' {
		t.Fatalf("wal_replay with WAL enabled = %+v, want error", got)
	}
	if err := gm2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALEnableCapturesExistingEdges checks wal_enable on a non-empty
// graph checkpoints first, so recovery is complete without the caller
// remembering to snapshot.
func TestWALEnableCapturesExistingEdges(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	dispatch(s, "g.insert", "7", "8")
	if got := dispatch(s, "wal_enable", dir); got.Str != "OK" {
		t.Fatalf("wal_enable = %+v", got)
	}
	dispatch(s, "g.insert", "9", "10")
	if err := gm.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	gm2, mod2 := NewGraphModule()
	s2 := NewServer()
	if err := s2.LoadModule(mod2); err != nil {
		t.Fatal(err)
	}
	if got := dispatch(s2, "wal_replay", dir); got.Type == '-' {
		t.Fatalf("wal_replay = %+v", got)
	}
	for _, e := range [][2]string{{"7", "8"}, {"9", "10"}} {
		if v := dispatch(s2, "g.query", e[0], e[1]); v.Int != 1 {
			t.Fatalf("edge %v lost across enable-time checkpoint", e)
		}
	}
	_ = gm2
}

// TestWALCommandErrors covers the argument validation surface.
func TestWALCommandErrors(t *testing.T) {
	s := NewServer()
	_, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"wal_enable"},
		{"wal_enable", t.TempDir(), "sometimes"},
		{"wal_replay"},
		{"checkpoint", "extra"},
		{"checkpoint"}, // WAL not enabled
	} {
		if got := dispatch(s, args...); got.Type != '-' {
			t.Fatalf("%v = %+v, want error", args, got)
		}
	}
}

// TestEnableAfterRecoverSkipsCheckpoint: the RecoverWAL → EnableWAL
// boot sequence must not rewrite a full snapshot the directory already
// has.
func TestEnableAfterRecoverSkipsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if got := dispatch(s, "wal_enable", dir, "nosync"); got.Str != "OK" {
		t.Fatalf("wal_enable = %+v", got)
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
	checkpoints := func() []string {
		names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := checkpoints()

	gm2, mod2 := NewGraphModule()
	s2 := NewServer()
	if err := s2.LoadModule(mod2); err != nil {
		t.Fatal(err)
	}
	if _, err := gm2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := gm2.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	if after := checkpoints(); !reflect.DeepEqual(before, after) {
		t.Fatalf("boot rewrote checkpoints: %v -> %v", before, after)
	}
	// But enabling on a graph the directory does NOT describe must
	// still checkpoint: mutate first, then re-enable elsewhere.
	if err := gm2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	gm2.Graph().InsertEdge(9999, 9999)
	dir2 := t.TempDir()
	if err := gm2.EnableWAL(dir2, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	if n, err := filepath.Glob(filepath.Join(dir2, "checkpoint-*.snap")); err != nil || len(n) != 1 {
		t.Fatalf("fresh dir checkpoints = %v (err %v), want exactly one", n, err)
	}
	if err := gm2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestCountNeutralMutationsBetweenRecoverAndEnable pins the durability
// hand-off: mutations applied between wal_replay and wal_enable that
// happen to leave NumEdges/NumNodes unchanged (an insert/delete pair)
// must still force the initial checkpoint — otherwise they are neither
// in the log nor in a snapshot and a crash silently undoes them.
func TestCountNeutralMutationsBetweenRecoverAndEnable(t *testing.T) {
	dir := t.TempDir()
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if got := dispatch(s, "wal_enable", dir, "nosync"); got.Str != "OK" {
		t.Fatalf("wal_enable = %+v", got)
	}
	dispatch(s, "g.insert", "1", "2")
	dispatch(s, "g.insert", "1", "3")
	dispatch(s, "g.insert", "2", "5")
	if err := gm.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	gm2, mod2 := NewGraphModule()
	s2 := NewServer()
	if err := s2.LoadModule(mod2); err != nil {
		t.Fatal(err)
	}
	if _, err := gm2.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	// Count-neutral window: one insert (existing source node), one
	// delete (node keeps another edge). Edges 3→3, nodes 2→2.
	g := gm2.Graph()
	g.InsertEdge(1, 4)
	g.DeleteEdge(1, 2)
	if err := gm2.EnableWAL(dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	if err := gm2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	gm3, mod3 := NewGraphModule()
	s3 := NewServer()
	if err := s3.LoadModule(mod3); err != nil {
		t.Fatal(err)
	}
	if _, err := gm3.RecoverWAL(dir); err != nil {
		t.Fatal(err)
	}
	rec := gm3.Graph()
	if !rec.HasEdge(1, 4) {
		t.Fatal("edge (1,4) inserted between recover and enable was lost")
	}
	if rec.HasEdge(1, 2) {
		t.Fatal("edge (1,2) deleted between recover and enable resurrected")
	}
}

// TestReplicaRefusesLocalWAL: a replica's log is the leader's, so the
// command surface refuses a local one just as cgserver's flags do —
// and a restore on it (wal_replay) with it.
func TestReplicaRefusesLocalWAL(t *testing.T) {
	s, gm, _ := startGraphServer(t, Config{})
	r := StartReplica(gm, "127.0.0.1:1")
	t.Cleanup(r.Stop)
	dir := t.TempDir()
	if got := dispatch(s, "wal_enable", dir, "nosync"); got.Type != '-' {
		t.Fatalf("wal_enable on a replica = %+v, want an error", got)
	}
	if gm.walPtr.Load() != nil {
		t.Fatal("a refused wal_enable left a WAL attached")
	}
	if got := dispatch(s, "wal_replay", dir); got.Type != '-' {
		t.Fatalf("wal_replay on a replica = %+v, want an error", got)
	}
}

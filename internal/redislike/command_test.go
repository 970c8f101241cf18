package redislike

import (
	"strconv"
	"strings"
	"testing"

	"cuckoograph/internal/wal"
)

// TestCommandTable pins the served table: names lowercase and unique,
// a handler and a meter on every row, the map and the name-sorted list
// holding the same rows, a second module refused before anything joins,
// and COMMAND COUNT and LIST reporting the table in name order.
func TestCommandTable(t *testing.T) {
	s := NewServer()
	_, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	_, again := NewGraphModule()
	if err := s.LoadModule(again); err == nil {
		t.Fatal("a second graph module was loaded")
	}
	if len(s.cmds) != len(s.sorted) {
		t.Fatalf("table maps %d names, lists %d rows", len(s.cmds), len(s.sorted))
	}
	for i, c := range s.sorted {
		if c.Name == "" || c.Name != strings.ToLower(c.Name) {
			t.Fatalf("row %d is named %q, want a lowercase name", i, c.Name)
		}
		if i > 0 && s.sorted[i-1].Name >= c.Name {
			t.Fatalf("%q listed before %q: not unique in name order", s.sorted[i-1].Name, c.Name)
		}
		if s.cmds[c.Name] != c || c.Handler == nil || c.metrics == nil {
			t.Fatalf("row %q: mapped %v, handler %v, meter %v", c.Name, s.cmds[c.Name] == c, c.Handler != nil, c.metrics != nil)
		}
	}
	if got := dispatch(s, "COMMAND", "COUNT"); got.Int != int64(len(s.sorted)) {
		t.Fatalf("COMMAND COUNT = %+v, want %d", got, len(s.sorted))
	}
	list := dispatch(s, "COMMAND", "LIST")
	if len(list.Array) != len(s.sorted) {
		t.Fatalf("COMMAND LIST has %d names, want %d", len(list.Array), len(s.sorted))
	}
	for i, v := range list.Array {
		if v.Str != s.sorted[i].Name {
			t.Fatalf("COMMAND LIST[%d] = %q, want %q", i, v.Str, s.sorted[i].Name)
		}
	}
}

func TestArity(t *testing.T) {
	cases := []struct {
		a     Arity
		n     int
		ok    bool
		redis int64
	}{
		{Exactly(2), 2, true, 3},
		{Exactly(2), 1, false, 3},
		{Exactly(2), 3, false, 3},
		{AtLeast(1), 1, true, -2},
		{AtLeast(1), 9, true, -2},
		{AtLeast(1), 0, false, -2},
		{Between(1, 2), 1, true, -2},
		{Between(1, 2), 2, true, -2},
		{Between(1, 2), 3, false, -2},
	}
	for _, c := range cases {
		if got := c.a.Check(c.n); got != c.ok {
			t.Errorf("%+v.Check(%d) = %v, want %v", c.a, c.n, got, c.ok)
		}
		if got := c.a.Redis(); got != c.redis {
			t.Errorf("%+v.Redis() = %d, want %d", c.a, got, c.redis)
		}
	}
}

func TestFlagNames(t *testing.T) {
	got := (FlagWrite | FlagAdmin).Names()
	if len(got) != 2 || got[0] != "write" || got[1] != "admin" {
		t.Fatalf("Names = %v", got)
	}
}

// TestCommandIntrospection: COMMAND is generated from the command
// table, so every served command — built-in and module alike — appears
// with its live arity and flags.
func TestCommandIntrospection(t *testing.T) {
	s := NewServer()
	_, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}

	// The server speaks exactly the two built-ins and the graph module's
	// commands, in name order.
	list := dispatch(s, "COMMAND", "LIST")
	var names []string
	for _, v := range list.Array {
		names = append(names, v.Str)
	}
	want := []string{"checkpoint", "command",
		"g.degree", "g.del", "g.getneighbors", "g.info", "g.insert", "g.mdel", "g.minsert", "g.nodes",
		"g.query", "g.release", "g.replack", "g.replicate", "g.snapshot", "g.snapshots",
		"graph.bfs", "graph.pagerank", "ping", "wal_resume"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("COMMAND LIST = %v, want the %d names %v", names, len(want), want)
	}

	info := dispatch(s, "COMMAND", "INFO", "g.insert", "nosuch")
	if len(info.Array) != 2 {
		t.Fatalf("COMMAND INFO = %+v", info)
	}
	ent := info.Array[0]
	if ent.Array[0].Str != "g.insert" || ent.Array[1].Int != 3 {
		t.Fatalf("g.insert entry = %+v", ent)
	}
	flagSet := map[string]bool{}
	for _, f := range ent.Array[2].Array {
		flagSet[f.Str] = true
	}
	if !flagSet["write"] {
		t.Fatalf("g.insert flags = %+v, want write", ent.Array[2])
	}
	if !info.Array[1].Null {
		t.Fatalf("unknown command entry = %+v, want null", info.Array[1])
	}

	// The full listing has one entry per row.
	if full := dispatch(s, "COMMAND"); len(full.Array) != len(s.sorted) {
		t.Fatalf("COMMAND listed %d entries, want %d", len(full.Array), len(s.sorted))
	}
	if got := dispatch(s, "COMMAND", "BOGUS"); got.Type != '-' || !strings.HasPrefix(got.Str, "ERR ") {
		t.Fatalf("COMMAND BOGUS = %+v", got)
	}
}

// TestInfoCommand exercises G.INFO: full output, one section, and the
// error on an unknown section.
func TestInfoCommand(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	dispatch(s, "g.insert", "1", "2")
	dispatch(s, "g.insert", "1", "3")

	full := dispatch(s, "G.INFO")
	for _, want := range []string{"# server", "# commands", "# graph", "# snapshots", "# wal",
		"# replication", "role:leader", "connected_replicas:0",
		"edges:2", "commands_registered:", "enabled:0", "cmdstat_g.insert:calls=2"} {
		if !strings.Contains(full.Str, want) {
			t.Fatalf("G.INFO missing %q in:\n%s", want, full.Str)
		}
	}

	one := dispatch(s, "G.INFO", "graph")
	if !strings.Contains(one.Str, "edges:2") || strings.Contains(one.Str, "# wal") {
		t.Fatalf("G.INFO graph = %q", one.Str)
	}
	// Denylist occupancy and chain depth: one node past its inline
	// slots owns a one-table chain, and nothing is parked.
	for v := 1; v <= 20; v++ {
		dispatch(s, "g.insert", "7", strconv.Itoa(v))
	}
	one = dispatch(s, "G.INFO", "graph")
	for _, want := range []string{"chains:1\n", "scht_tables:1\n", "ldl_len:0\n", "sdl_len:0\n"} {
		if !strings.Contains(one.Str, want) {
			t.Fatalf("G.INFO graph missing %q in:\n%s", want, one.Str)
		}
	}
	// Every key of the section is a cg_graph_ series on /metrics, with
	// the same value.
	if n := checkInfoSeries(t, s, "graph", "cg_graph_", nil); n < 18 {
		t.Fatalf("G.INFO graph has %d numeric keys, want at least 18:\n%s", n, one.Str)
	}
	// The snapshots section likewise, after one compiled epoch: a
	// retained snapshot that an analytics command ran on.
	epoch := dispatch(s, "g.snapshot")
	dispatch(s, "graph.pagerank", "3", strconv.FormatInt(epoch.Int, 10))
	if n := checkInfoSeries(t, s, "snapshots", "cg_snapshot_", nil); n < 8 {
		t.Fatalf("G.INFO snapshots has %d numeric keys, want at least 8", n)
	}
	snaps := dispatch(s, "G.INFO", "snapshots")
	for _, want := range []string{"csr_builds:1\n", "ring_retained:1\n"} {
		if !strings.Contains(snaps.Str, want) {
			t.Fatalf("G.INFO snapshots missing %q in:\n%s", want, snaps.Str)
		}
	}
	if strings.Contains(snaps.Str, "csr_bytes:0\n") {
		t.Fatalf("a compiled epoch is retained but csr_bytes is 0:\n%s", snaps.Str)
	}
	// Releasing the last compiled view gives its bytes back.
	dispatch(s, "g.release", strconv.FormatInt(epoch.Int, 10))
	if snaps = dispatch(s, "G.INFO", "snapshots"); !strings.Contains(snaps.Str, "csr_bytes:0\n") {
		t.Fatalf("csr_bytes after the release:\n%s", snaps.Str)
	}
	if got := dispatch(s, "G.INFO", "bogus"); got.Type != '-' || !strings.HasPrefix(got.Str, "ERR ") {
		t.Fatalf("G.INFO bogus = %+v", got)
	}
	// The remaining sections likewise, the wal one in both its shapes.
	// (A follower's replication section is checked where one exists:
	// TestReplicationSectionsMatchMetrics.)
	if n := checkInfoSeries(t, s, "wal", "cg_wal_", nil); n != 1 {
		t.Fatalf("G.INFO wal without a log has %d numeric keys, want enabled alone", n)
	}
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	defer gm.CloseWAL()
	dispatch(s, "g.insert", "8", "9")
	for section, want := range map[string]struct {
		prefix string
		keys   int
	}{
		"server": {"cg_", 6}, "commands": {"cg_", 1}, "wal": {"cg_wal_", 11}, "replication": {"cg_repl_", 3},
	} {
		if n := checkInfoSeries(t, s, section, want.prefix, nil); n < want.keys {
			t.Fatalf("G.INFO %s has %d numeric keys, want at least %d", section, n, want.keys)
		}
	}
	if w := dispatch(s, "G.INFO", "wal").Str; !strings.Contains(w, "ops:1\n") || !strings.Contains(w, "dir:") {
		t.Fatalf("G.INFO wal after one logged insert:\n%s", w)
	}
}

// checkInfoSeries reads one G.INFO section and then /metrics, and fails
// unless every numeric key of the section is a series named
// prefix+key (prefix+key+"_total" for a counter) with the same value;
// it returns how many keys it checked. String-valued keys (dir, role,
// state, cmdstat_*, replicaN) are G.INFO-only and skipped. alias maps a
// key to its series name where the two differ. Of uptime_seconds, the
// one clock, only the presence is checked: the surfaces are read a
// moment apart. csr_build_seconds is a sum, not a clock: no build lands
// between the two reads, so it must agree like any other key.
func checkInfoSeries(t *testing.T, s *Server, section, prefix string, alias map[string]string) int {
	t.Helper()
	// Both surfaces are read with the asking connection open, so they
	// count the same connections.
	p := servePipe(t, s)
	info := p.do("G.INFO", section).Str
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	p.hangup()
	metrics := "\n" + sb.String()
	lines := strings.Split(strings.TrimSpace(info), "\n")[1:] // drop "# section"
	n := 0
	for _, line := range lines {
		key, val, _ := strings.Cut(line, ":")
		if v, err := strconv.ParseFloat(val, 64); err != nil {
			continue
		} else if key == "csr_build_seconds" && v <= 0 {
			t.Fatalf("csr_build_seconds = %q, want a positive duration", val)
		}
		n++
		series := "\n" + prefix + key
		if a, ok := alias[key]; ok {
			series = "\n" + prefix + a
		}
		if key == "uptime_seconds" {
			if !strings.Contains(metrics, series+" ") && !strings.Contains(metrics, series+"_total ") {
				t.Fatalf("G.INFO %s key %q has no %s series", section, key, prefix)
			}
			continue
		}
		if !strings.Contains(metrics, series+" "+val+"\n") && !strings.Contains(metrics, series+"_total "+val+"\n") {
			t.Fatalf("G.INFO %s key %q (= %s) has no %s series in:\n%s", section, key, val, prefix, metrics)
		}
	}
	return n
}

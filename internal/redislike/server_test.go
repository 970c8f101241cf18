package redislike

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
)

func TestBuiltinsOverTCP(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	send := func(args ...string) resp.Value {
		t.Helper()
		if err := resp.Write(w, resp.Command(args...)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		v, err := resp.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if got := send("PING"); got.Str != "PONG" {
		t.Fatalf("PING = %+v", got)
	}
	// There is no string keyspace: SET is a command like any other the
	// server does not know.
	if got := send("SET", "k", "v"); got.Type != '-' || got.Str != "ERR unknown command 'set'" {
		t.Fatalf("SET = %+v", got)
	}
	if got := send("NOSUCH"); got.Type != '-' {
		t.Fatalf("unknown command = %+v", got)
	}
}

func TestGraphModuleCommands(t *testing.T) {
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}

	if got := dispatch(s, "G.INSERT", "1", "2"); got.Int != 1 {
		t.Fatalf("first insert = %+v", got)
	}
	if got := dispatch(s, "g.insert", "1", "2"); got.Int != 0 {
		t.Fatalf("dup insert = %+v", got)
	}
	if got := dispatch(s, "g.query", "1", "2"); got.Int != 1 {
		t.Fatalf("query = %+v", got)
	}
	dispatch(s, "g.insert", "1", "3")
	if got := dispatch(s, "g.getneighbors", "1"); len(got.Array) != 2 {
		t.Fatalf("getneighbors = %+v", got)
	}
	if got := dispatch(s, "g.del", "1", "2"); got.Int != 1 {
		t.Fatalf("del = %+v", got)
	}
	if got := dispatch(s, "g.query", "1", "2"); got.Int != 0 {
		t.Fatalf("query after del = %+v", got)
	}
	if got := dispatch(s, "g.insert", "x", "2"); got.Type != '-' {
		t.Fatalf("bad arg = %+v", got)
	}
	if gm.Graph().NumEdges() != 1 {
		t.Fatalf("graph edges = %d, want 1", gm.Graph().NumEdges())
	}
}

// TestGraphModulePersistence: a module's graph survives the one state
// path — Graph.Save out, sharded.Load + installGraph into a fresh module
// — edge for edge, and a damaged snapshot is refused before any swap.
func TestGraphModulePersistence(t *testing.T) {
	gm, _ := NewGraphModule()
	for i := uint64(1); i <= 500; i++ {
		gm.Graph().InsertEdge(i%50, i)
	}
	want := gm.Graph().NumEdges()
	snap := saveGraph(t, gm)
	if int64(len(snap)) != core.BasicSnapshotSize(want) {
		t.Fatalf("snapshot is %d bytes, want %d for %d edges", len(snap), core.BasicSnapshotSize(want), want)
	}

	gm2, _ := NewGraphModule()
	g, err := sharded.Load(bytes.NewReader(snap), sharded.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gm2.installGraph(g)
	if gm2.Graph().NumEdges() != want {
		t.Fatalf("restored %d edges, want %d", gm2.Graph().NumEdges(), want)
	}
	for i := uint64(1); i <= 500; i++ {
		if !gm2.Graph().HasEdge(i%50, i) {
			t.Fatalf("edge ⟨%d,%d⟩ lost across save/load", i%50, i)
		}
	}

	if _, err := sharded.Load(bytes.NewReader([]byte{1, 2, 3}), sharded.Config{}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestDuplicateModuleCommand: a second graph module is refused before
// any of its commands is registered.
func TestDuplicateModuleCommand(t *testing.T) {
	s := NewServer()
	_, m1 := NewGraphModule()
	if err := s.LoadModule(m1); err != nil {
		t.Fatal(err)
	}
	count := dispatch(s, "COMMAND", "COUNT").Int
	gm2, m2 := NewGraphModule()
	if err := s.LoadModule(m2); err == nil {
		t.Fatal("duplicate command registration accepted")
	}
	if got := dispatch(s, "COMMAND", "COUNT").Int; got != count {
		t.Fatalf("COMMAND COUNT = %d after the refused load, want %d", got, count)
	}
	if gm2.srv != nil {
		t.Fatal("refused module was wired to the server")
	}
}

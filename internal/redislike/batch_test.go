package redislike

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"strconv"
	"testing"

	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
)

// graphServer boots a server with the CuckooGraph module and returns a
// connected client plus a one-shot request helper.
func graphServer(t *testing.T) (*GraphModule, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	s := NewServer()
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return gm, bufio.NewReader(conn), bufio.NewWriter(conn)
}

func roundTrip(t *testing.T, r *bufio.Reader, w *bufio.Writer, args ...string) resp.Value {
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

// TestMInsertMDel drives the variadic batch commands over TCP.
func TestMInsertMDel(t *testing.T) {
	gm, r, w := graphServer(t)

	if got := roundTrip(t, r, w, "g.minsert", "1", "2", "1", "3", "1", "2", "4", "5"); got.Int != 3 {
		t.Fatalf("g.minsert = %+v, want 3 new edges (one duplicate)", got)
	}
	if gm.Graph().NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", gm.Graph().NumEdges())
	}
	if got := roundTrip(t, r, w, "g.mdel", "1", "2", "9", "9"); got.Int != 1 {
		t.Fatalf("g.mdel = %+v, want 1 removed", got)
	}
	if got := roundTrip(t, r, w, "g.query", "1", "3"); got.Int != 1 {
		t.Fatalf("g.query(1,3) = %+v", got)
	}
	if got := roundTrip(t, r, w, "g.query", "1", "2"); got.Int != 0 {
		t.Fatalf("g.query(1,2) after mdel = %+v", got)
	}

	// Argument validation.
	if got := roundTrip(t, r, w, "g.minsert"); got.Type != '-' {
		t.Fatalf("empty g.minsert = %+v, want error", got)
	}
	if got := roundTrip(t, r, w, "g.minsert", "1"); got.Type != '-' {
		t.Fatalf("odd-arity g.minsert = %+v, want error", got)
	}
	if got := roundTrip(t, r, w, "g.mdel", "x", "2"); got.Type != '-' {
		t.Fatalf("bad id g.mdel = %+v, want error", got)
	}
}

// TestDegreeAndNodes covers the read commands the wire protocol never
// exposed before.
func TestDegreeAndNodes(t *testing.T) {
	_, r, w := graphServer(t)
	roundTrip(t, r, w, "g.minsert", "1", "2", "1", "3", "1", "4", "7", "8")

	if got := roundTrip(t, r, w, "g.degree", "1"); got.Int != 3 {
		t.Fatalf("g.degree 1 = %+v, want 3", got)
	}
	if got := roundTrip(t, r, w, "g.degree", "99"); got.Int != 0 {
		t.Fatalf("g.degree 99 = %+v, want 0", got)
	}
	got := roundTrip(t, r, w, "g.nodes")
	if got.Type != '*' {
		t.Fatalf("g.nodes = %+v, want array", got)
	}
	var ids []string
	for _, v := range got.Array {
		ids = append(ids, v.Str)
	}
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "1" || ids[1] != "7" {
		t.Fatalf("g.nodes = %v, want [1 7]", ids)
	}
	if got := roundTrip(t, r, w, "g.degree"); got.Type != '-' {
		t.Fatalf("g.degree with no args = %+v, want error", got)
	}
	if got := roundTrip(t, r, w, "g.nodes", "extra"); got.Type != '-' {
		t.Fatalf("g.nodes with args = %+v, want error", got)
	}
}

// TestPipelining sends a burst of commands before reading any reply:
// the server must answer all of them, in order, without waiting for
// per-command flushes.
func TestPipelining(t *testing.T) {
	gm, r, w := graphServer(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := resp.Write(w, resp.Command("g.insert", strconv.Itoa(i), strconv.Itoa(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := resp.Read(r)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if v.Type != ':' || v.Int != 1 {
			t.Fatalf("reply %d = %+v, want :1", i, v)
		}
	}
	if gm.Graph().NumEdges() != n {
		t.Fatalf("NumEdges = %d, want %d", gm.Graph().NumEdges(), n)
	}

	// A pipelined mixed burst keeps per-command reply order.
	cmds := [][]string{
		{"g.minsert", "1000", "1001", "1000", "1002"},
		{"g.query", "1000", "1001"},
		{"g.mdel", "1000", "1001", "1000", "1001"},
		{"g.degree", "1000"},
	}
	for _, c := range cmds {
		if err := resp.Write(w, resp.Command(c...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 1, 1, 1}
	for i, wantV := range want {
		v, err := resp.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int != wantV {
			t.Fatalf("pipelined reply %d (%v) = %+v, want %d", i, cmds[i], v, wantV)
		}
	}
}

// TestMInsertRDBRoundTrip: batch-inserted edges round-trip the snapshot
// bytes (§V-F's RDB: Graph.Save out, sharded.Load in) like single-op
// ones.
func TestMInsertRDBRoundTrip(t *testing.T) {
	gm, r, w := graphServer(t)
	var args []string
	args = append(args, "g.minsert")
	for i := 0; i < 100; i++ {
		args = append(args, fmt.Sprint(i), fmt.Sprint(i+1))
	}
	roundTrip(t, r, w, args...)
	g2, err := sharded.Load(bytes.NewReader(saveGraph(t, gm)), sharded.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != gm.Graph().NumEdges() {
		t.Fatalf("restored %d edges, want %d", g2.NumEdges(), gm.Graph().NumEdges())
	}
}

package redislike

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
	"cuckoograph/internal/wal"
)

// Degraded-mode serving: a WAL storage failure under a live workload
// must fail the triggering write, flip the server into read-only
// -MISCONF mode with reads unaffected, surface through G.INFO, metrics
// and /readyz, and hand service back after wal_resume — with nothing
// acked ever lost to the recovery directory.

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

// expectClass reads one reply and requires an error of the given class.
func expectClass(t *testing.T, p *pipeClient, class, what string) {
	t.Helper()
	if v := p.read(); v.Type != '-' || !strings.HasPrefix(v.Str, class+" ") {
		t.Fatalf("%s: want -%s, got %+v", what, class, v)
	}
}

// expectInt reads one reply and requires the integer n.
func expectInt(t *testing.T, p *pipeClient, n int64, what string) {
	t.Helper()
	if v := p.read(); v.Type != ':' || v.Int != n {
		t.Fatalf("%s: want :%d, got %+v", what, n, v)
	}
}

// TestDegradedModeENOSPCPipelined is the acceptance pin for the
// drain-level rule: FaultFS forces ENOSPC under a pipelined workload;
// in the drain whose commit fails EVERY write answers -WALERR (applied
// in memory, not durable) while the reads in it keep their answers, the
// next drain's writes answer -MISCONF, state is visible everywhere it
// should be, and wal_resume restores write service with a recovery
// directory that describes the whole graph.
func TestDegradedModeENOSPCPipelined(t *testing.T) {
	srv, gm, addr := startGraphServer(t, Config{})
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(dir, wal.Options{Sync: wal.SyncAlways, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	maddr, err := srv.ListenMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	p := dialPipe(t, addr)
	p.push("g.insert", "1", "2")
	p.flush()
	if v := p.read(); v.Type != ':' || v.Int != 1 {
		t.Fatalf("healthy insert: got %+v", v)
	}

	// The disk fills. The whole burst is pipelined before any reply is
	// read, so it is one drain: all three writes apply and stage, the one
	// commit ahead of the flush fails, and every write reply of the drain
	// is taken back — no :0/:1/:N for an uncommitted write reaches the
	// socket. The reads in between keep their answers.
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask() | vfs.OpSync.Mask(), Err: syscall.ENOSPC})
	p.push("g.insert", "3", "4")
	p.push("g.query", "1", "2")
	p.push("g.insert", "5", "6")
	p.push("g.minsert", "7", "8", "9", "10")
	p.push("g.query", "3", "4")
	p.flush()
	expectClass(t, p, ClassWALErr, "1st write of the failed drain")
	expectInt(t, p, 1, "read inside the failed drain")
	expectClass(t, p, ClassWALErr, "2nd write of the failed drain")
	expectClass(t, p, ClassWALErr, "3rd write of the failed drain")
	// The -WALERR'd mutations were applied in memory; reads serve them
	// even though they are not durable.
	expectInt(t, p, 1, "read of a non-durable edge")
	if !srv.Degraded() {
		t.Fatal("server not degraded after WAL failure")
	}
	// From the next drain on, writes are refused up front and reads serve.
	p.push("g.insert", "13", "14")
	p.push("g.mdel", "3", "4")
	p.push("g.query", "5", "6")
	p.flush()
	expectClass(t, p, ClassMisconf, "insert in the next drain")
	expectClass(t, p, ClassMisconf, "mdel in the next drain")
	expectInt(t, p, 1, "read while degraded")

	// Surfacing: G.INFO, /metrics, /healthz (alive), /readyz (not ready).
	p.push("g.info", "server")
	p.flush()
	if v := p.read(); !strings.Contains(v.Str, "degraded:1") || !strings.Contains(v.Str, "degraded_reason:wal:") {
		t.Fatalf("g.info server while degraded:\n%s", v.Str)
	}
	if code, body := httpGet(t, "http://"+maddr+"/metrics"); code != 200 || !strings.Contains(body, "cg_degraded 1") {
		t.Fatalf("metrics while degraded: code=%d, cg_degraded sample missing", code)
	}
	if code, body := httpGet(t, "http://"+maddr+"/healthz"); code != 200 || !strings.Contains(body, "degraded") {
		t.Fatalf("healthz while degraded: code=%d body=%q (liveness must hold, body must say degraded)", code, body)
	}
	if code, body := httpGet(t, "http://"+maddr+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("readyz while degraded: code=%d body=%q", code, body)
	}

	// wal_resume while the disk is still full fails and stays degraded.
	p.push("wal_resume")
	p.flush()
	if v := p.read(); v.Type != '-' || !strings.HasPrefix(v.Str, ClassWALErr+" ") {
		t.Fatalf("wal_resume on still-full disk: want -WALERR, got %+v", v)
	}
	if !srv.Degraded() {
		t.Fatal("failed wal_resume must leave the server degraded")
	}

	// The operator frees space; wal_resume reopens the log, checkpoints
	// the live graph (capturing the -WALERR'd in-memory mutation), and
	// write service returns.
	ffs.ClearFault()
	p.push("wal_resume")
	p.push("g.insert", "11", "12")
	p.push("g.query", "3", "4")
	p.flush()
	if v := p.read(); v.Type != '+' || v.Str != "OK" {
		t.Fatalf("wal_resume after freeing space: got %+v", v)
	}
	if v := p.read(); v.Type != ':' || v.Int != 1 {
		t.Fatalf("insert after resume: got %+v", v)
	}
	if v := p.read(); v.Type != ':' || v.Int != 1 {
		t.Fatalf("query after resume: got %+v", v)
	}
	if srv.Degraded() {
		t.Fatal("server still degraded after successful wal_resume")
	}
	if code, _ := httpGet(t, "http://"+maddr+"/readyz"); code != 200 {
		t.Fatalf("readyz after resume: code=%d", code)
	}

	// Recovery completeness: the directory must describe the full live
	// graph — including the edge whose original append failed.
	live := gm.Graph()
	if err := srv.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	g, _, err := wal.Recover(dir, sharded.Config{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, e := range [][2]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost from recovery directory", e)
		}
	}
	if g.NumEdges() != live.NumEdges() {
		t.Fatalf("recovered %d edges, live graph had %d", g.NumEdges(), live.NumEdges())
	}
}

// TestDegradedModeDepthOne: the drain-level rule at pipeline depth 1 is
// the old per-command rule — the write whose commit fails answers
// -WALERR, the next one -MISCONF.
func TestDegradedModeDepthOne(t *testing.T) {
	srv, gm, addr := startGraphServer(t, Config{})
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncNone, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	p := dialPipe(t, addr)
	roundTrip := func(args ...string) {
		p.push(args...)
		p.flush()
	}
	roundTrip("g.insert", "1", "2")
	expectInt(t, p, 1, "healthy insert")
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), Err: syscall.EIO})
	roundTrip("g.insert", "3", "4")
	expectClass(t, p, ClassWALErr, "write on a failing disk")
	roundTrip("g.del", "1", "2")
	expectClass(t, p, ClassMisconf, "write after the failure")
	roundTrip("g.query", "3", "4")
	expectInt(t, p, 1, "read while degraded")
	if !srv.Degraded() {
		t.Fatal("server not degraded")
	}
	c, _ := srv.Registry().Lookup("g.insert")
	if n := c.metrics.errs.Load(); n != 1 {
		t.Fatalf("g.insert error count = %d, want 1 (the taken-back reply is metered as an error)", n)
	}
	ffs.ClearFault()
	if err := srv.Shutdown(context.Background()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Shutdown while degraded = %v, want the log's sticky EIO", err)
	}
}

// TestDegradedModeHighWaterCommit: the commit ahead of an intermediate
// flush (reply buffer past flushHighWater with input still queued) is
// held to the same rule. The write before the big reply is taken back,
// the big read goes out whole, and the write after it — same burst,
// but past the failed commit — is already refused.
func TestDegradedModeHighWaterCommit(t *testing.T) {
	srv, gm, addr := startGraphServer(t, Config{})
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncNone, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	// A node whose neighbour list alone overflows the reply high-water mark.
	const fanout = 12000
	b := make(core.Batch, 0, fanout)
	for v := uint64(0); v < fanout; v++ {
		b = b.Insert(9, 1_000_000+v)
	}
	gm.Graph().ApplyBatch(b)

	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask(), Err: syscall.ENOSPC})
	p := dialPipe(t, addr)
	p.push("g.insert", "1", "2")
	p.push("g.getneighbors", "9")
	p.push("g.insert", "3", "4")
	p.push("g.query", "1", "2")
	p.flush()
	expectClass(t, p, ClassWALErr, "write ahead of the intermediate flush")
	if v := p.read(); v.Type != '*' || len(v.Array) != fanout {
		t.Fatalf("big read: type %q with %d elements, want %d", v.Type, len(v.Array), fanout)
	}
	expectClass(t, p, ClassMisconf, "write after the failed intermediate commit")
	expectInt(t, p, 1, "read of the non-durable edge")
	if !srv.Degraded() {
		t.Fatal("server not degraded")
	}
	ffs.ClearFault()
}

// TestWALOnErrorPanicFiresAtCommit: under -wal-on-error=panic the write
// handlers of a drain return normally — they only stage — and the panic
// comes from the drain's commit, before any reply could be flushed.
func TestWALOnErrorPanicFiresAtCommit(t *testing.T) {
	srv, gm, _ := startGraphServer(t, Config{})
	gm.SetWALErrorPolicy(WALOnErrorPanic)
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncAlways, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask() | vfs.OpSync.Mask(), Err: syscall.EIO})
	var w resp.Writer
	ctx := &Ctx{srv: srv, w: &w}
	srv.serveRequest(ctx, byteArgs("g.insert", "1", "2"))
	srv.serveRequest(ctx, byteArgs("g.minsert", "3", "4", "5", "6"))
	if string(w.Bytes()) != ":1\r\n:2\r\n" || len(ctx.uncommitted) != 2 {
		t.Fatalf("staged replies = %q, %d tracked", w.Bytes(), len(ctx.uncommitted))
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "-wal-on-error=panic") {
			t.Fatalf("commit on a failed WAL: recovered %v, want the policy's panic", r)
		}
		ffs.ClearFault()
		gm.Graph().SetWAL(nil)
		srv.Close()
	}()
	srv.commit(ctx)
}

// TestWALOnErrorPanicPolicy: with -wal-on-error=panic a WAL failure
// crashes the write path instead of degrading.
func TestWALOnErrorPanicPolicy(t *testing.T) {
	srv, gm, _ := startGraphServer(t, Config{})
	gm.SetWALErrorPolicy(WALOnErrorPanic)
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(t.TempDir(), wal.Options{Sync: wal.SyncAlways, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpWrite.Mask() | vfs.OpSync.Mask(), Err: syscall.EIO})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("write on failed WAL did not panic under the panic policy")
		}
		if !strings.Contains(fmt.Sprint(r), "-wal-on-error=panic") {
			t.Fatalf("panic message %q does not name the policy", r)
		}
		// Disarm the fault so module teardown can close the WAL.
		ffs.ClearFault()
		gm.Graph().SetWAL(nil)
		srv.Close()
	}()
	// The loop runs on this goroutine, so its panic is the test's to
	// recover; the client's write returns once the loop has read it.
	cli, conn := net.Pipe()
	defer cli.Close()
	go func() {
		w := bufio.NewWriter(cli)
		resp.Write(w, resp.Command("g.insert", "1", "2"))
		w.Flush()
	}()
	srv.serve(conn)
}

// TestReadyzReplicaBootstrapGate: a replica that has not reached
// streaming state is alive but not ready; the gate latches open once
// it has bootstrapped.
func TestReadyzReplicaBootstrapGate(t *testing.T) {
	srv, gm, _ := startGraphServer(t, Config{})
	r := &Replica{gm: gm, done: make(chan struct{})}
	gm.replica.Store(r)
	if err := srv.Ready(); err == nil || !strings.Contains(err.Error(), "bootstrapping") {
		t.Fatalf("Ready() with unbootstrapped replica: want bootstrapping error, got %v", err)
	}
	r.markStreaming()
	if err := srv.Ready(); err != nil {
		t.Fatalf("Ready() after bootstrap: %v", err)
	}
	gm.replica.Store(nil)
}

// TestReplicationTerminalErrFrame (satellite): a leader whose log
// fails under stream setup emits the terminal ["err", msg] frame
// instead of silently dropping the connection.
func TestReplicationTerminalErrFrame(t *testing.T) {
	srv, gm, addr := startGraphServer(t, Config{})
	ffs := vfs.NewFaultFS(nil)
	if err := gm.EnableWAL(t.TempDir(), wal.Options{FS: ffs}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if v := dispatch(srv, "g.insert", "1", "2"); v.Type == '-' {
		t.Fatalf("insert: %s", v.Str)
	}

	// A bootstrap request (0 0) forces a snapshot cut against a segment
	// rotation; failing the new segment's creation fails the cut, which
	// must be answered with a terminal err frame.
	ffs.SetFault(vfs.Fault{Kinds: vfs.OpCreate.Mask(), PathContains: ".seg", Err: syscall.ENOSPC})
	p := dialPipe(t, addr)
	p.push("g.replicate", "0", "0")
	p.flush()
	v := p.read()
	if v.Type != '*' || len(v.Array) != 2 || v.Array[0].Str != replKindErr {
		t.Fatalf("want terminal [err, msg] frame, got %+v", v)
	}
	if !strings.Contains(v.Array[1].Str, "snapshot failed") {
		t.Fatalf("err frame message %q does not say why", v.Array[1].Str)
	}
	ffs.ClearFault()
}

// TestReplicaHandlesErrFrame (satellite): the follower surfaces a
// leader's terminal err frame as a typed stream error — distinguishable
// from a network drop.
func TestReplicaHandlesErrFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Consume the g.replicate request, then end the stream on purpose.
		buf := make([]byte, 256)
		c.Read(buf)
		bw := bufio.NewWriter(c)
		resp.Write(bw, resp.Command(replKindErr, "log read failed"))
		bw.Flush()
	}()

	_, gm, _ := startGraphServer(t, Config{})
	r := &Replica{
		gm:     gm,
		leader: ln.Addr().String(),
		log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		done:   make(chan struct{}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, serr := r.stream(ctx)
	if serr == nil || !strings.Contains(serr.Error(), "leader ended stream: log read failed") {
		t.Fatalf("want typed leader-ended error, got %v", serr)
	}
}

// TestJitterBackoffRange (satellite): reconnect delays are spread
// across [d/2, 3d/2) instead of firing in lockstep.
func TestJitterBackoffRange(t *testing.T) {
	base := time.Second
	lo, hi := base, base
	for i := 0; i < 200; i++ {
		d := jitterBackoff(base)
		if d < base/2 || d >= base+base/2 {
			t.Fatalf("jitterBackoff(%v) = %v outside [%v, %v)", base, d, base/2, base+base/2)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < base/4 {
		t.Fatalf("jitter spread %v over 200 samples is suspiciously tight", hi-lo)
	}
}

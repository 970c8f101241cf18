package redislike

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// TestShutdownReleasesViewsAndWAL is the leak-fix pin: a server stopped
// mid-flight — retained snapshot views in the ring, WAL open — must
// tear down in order: drain, release every ring view (LiveViews drops
// to zero, pinned CoW state freed), then close the WAL (flock released,
// pending records flushed).
func TestShutdownReleasesViewsAndWAL(t *testing.T) {
	dir := t.TempDir()
	s, gm, _ := startWALServer(t, Config{}, dir, wal.Options{Sync: wal.SyncAlways})
	for i := 1; i <= 8; i++ {
		if got := dispatch(s, "g.insert", "1", string(rune('0'+i))); got.Type == '-' {
			t.Fatalf("insert = %+v", got)
		}
	}
	for i := 0; i < 3; i++ {
		if got := dispatch(s, "g.snapshot"); got.Type != ':' {
			t.Fatalf("snapshot = %+v", got)
		}
		dispatch(s, "g.insert", "2", string(rune('0'+i)))
	}
	if live := gm.Graph().LiveViews(); live != 3 {
		t.Fatalf("pre-shutdown live views = %d, want 3", live)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if live := gm.Graph().LiveViews(); live != 0 {
		t.Fatalf("shutdown leaked %d snapshot views", live)
	}
	// The WAL closed cleanly: its directory lock is released (a fresh
	// Open succeeds where a leaked flock would fail) and recovery sees
	// every acknowledged write.
	g, _, err := wal.Recover(dir, sharded.Config{})
	if err != nil {
		t.Fatalf("recover after shutdown: %v", err)
	}
	if want := gm.Graph().NumEdges(); g.NumEdges() != want {
		t.Fatalf("recovered %d edges, want %d", g.NumEdges(), want)
	}
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("wal dir still locked after shutdown: %v", err)
	}
	w.Close()

	// Shutdown is idempotent: every later call reports the first result.
	if err := s.Close(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestShutdownDrains: an idle connection is interrupted, Shutdown
// returns promptly, and both new dials and the draining listener are
// refused afterwards.
func TestShutdownDrains(t *testing.T) {
	s, _, addr := startGraphServer(t, Config{})
	p := dialPipe(t, addr)
	p.push("PING")
	p.flush()
	if got := p.read(); got.Str != "PONG" {
		t.Fatalf("PING = %+v", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("shutdown hung on an idle connection")
	}

	// A drained server is not ready, and says why. (No test reaches the
	// -SHUTDOWN reply itself: it needs a connection admitted just as the
	// drain starts.)
	if err := s.Ready(); err == nil || err.Error() != "server is shutting down" {
		t.Fatalf("Ready() after shutdown = %v, want \"server is shutting down\"", err)
	}
	// The drained connection is closed.
	p.c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := resp.Read(p.r); err == nil {
		t.Fatal("idle connection survived shutdown")
	}
	// New dials are refused.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownFinishesInFlightCommand: a command already executing when
// Shutdown begins still gets its reply flushed before the connection
// closes — the drain waits for it instead of cutting it off.
func TestShutdownFinishesInFlightCommand(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	release := make(chan struct{})
	addCommand(s, "t.slow", func(ctx *Ctx) error {
		close(started)
		<-release
		ctx.w.AppendSimple("SLOW-OK")
		return nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	p := dialPipe(t, addr)
	p.push("t.slow")
	p.flush()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	// Shutdown must be blocked on the in-flight command, not racing past
	// it: give the drain a moment, then let the handler finish.
	select {
	case err := <-done:
		t.Fatalf("shutdown returned before the in-flight command finished (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := p.read(); got.Str != "SLOW-OK" {
		t.Fatalf("in-flight reply = %+v", got)
	}
	p.c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := resp.Read(p.r); err == nil {
		t.Fatal("connection survived shutdown")
	}
}

// TestMetricsEndpoint scrapes /metrics over HTTP and checks the three
// layers of the exposition: server gauges, per-command meters, and the
// graph module's engine/snapshot/WAL series.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, addr := startWALServer(t, Config{}, dir, wal.Options{})
	maddr, err := s.ListenMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	p := dialPipe(t, addr)
	p.push("g.insert", "1", "2")
	p.push("g.insert", "2", "3")
	p.push("g.query", "1", "2")
	p.push("g.snapshot")
	p.push("g.insert", "bad", "2")
	p.flush()
	for i := 0; i < 5; i++ {
		p.read()
	}

	res, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE cg_commands_total counter",
		`cg_commands_total{cmd="g.insert"} 3`,
		`cg_command_errors_total{cmd="g.insert"} 1`,
		`cg_command_seconds_bucket{cmd="g.query",le="+Inf"} 1`,
		`cg_command_seconds_count{cmd="g.query"} 1`,
		"cg_connections_active 1",
		"cg_connections_accepted_total 1",
		"cg_uptime_seconds",
		"cg_graph_edges 2",
		"cg_graph_nodes 2",
		"cg_graph_scht_tables 0",
		"# TYPE cg_graph_scht_kicks_total counter",
		"cg_graph_scht_placements_total 0",
		"cg_graph_lcht_placements_total 2",
		"cg_graph_lcht_tables ",
		"cg_graph_lcht_cells ",
		"cg_graph_chains 0",
		"cg_graph_chain_entries 0",
		"cg_graph_ldl_len 0",
		"cg_graph_sdl_len 0",
		"cg_snapshot_live_views 1",
		"cg_wal_enabled 1",
		"cg_wal_ops_total 2",
		"cg_shutting_down 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	res, err = http.Get("http://" + maddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", res.StatusCode)
	}

	// Shutdown closes the metrics listener too.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + maddr + "/metrics"); err == nil {
		t.Fatal("metrics listener survived shutdown")
	}
}

// flakyListener fails every Accept — EMFILE-shaped: a temporary
// condition on a live listener — except when a connection is queued,
// and records when each call was made and whether it succeeded.
type flakyListener struct {
	mu     sync.Mutex
	calls  []acceptCall
	conns  chan net.Conn
	closed chan struct{}
}

type acceptCall struct {
	at time.Time
	ok bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	var c net.Conn
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	case c = <-l.conns:
	default:
	}
	l.mu.Lock()
	if len(l.calls) < 1<<10 { // a spinning loop must fail the test, not exhaust memory
		l.calls = append(l.calls, acceptCall{time.Now(), c != nil})
	}
	l.mu.Unlock()
	if c == nil {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return c, nil
}

func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

func (l *flakyListener) seen() []acceptCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]acceptCall(nil), l.calls...)
}

// TestAcceptLoopBacksOff: a listener whose Accept keeps failing (the
// descriptor limit) is retried on a doubling delay, not in a spin; each
// streak of failures is logged once; a success resets the delay; and
// the loop returns once the listener is closed.
func TestAcceptLoopBacksOff(t *testing.T) {
	var logs bytes.Buffer
	var logMu sync.Mutex
	s := NewServerWith(Config{Logger: slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logs}, nil))})
	ln := &flakyListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	s.ln = ln
	done := make(chan struct{})
	go func() { defer close(done); s.acceptLoop() }()

	// 5+10+20+40+80 ms of back-off fit in the window, the 160 ms step
	// does not: six calls, where a bare retry loop makes millions.
	time.Sleep(200 * time.Millisecond)
	calls := ln.seen()
	if len(calls) < 2 || len(calls) > 8 {
		t.Fatalf("%d Accept calls in 200ms of failures, want the handful a doubling back-off allows", len(calls))
	}
	for i, want := 1, acceptBackoffMin; i < len(calls); i, want = i+1, 2*want {
		if gap := calls[i].at.Sub(calls[i-1].at); gap < want {
			t.Fatalf("retry %d came %v after the previous failure, want >= %v", i, gap, want)
		}
	}

	// A served connection ends the streak: the failures after it start
	// from the minimum delay again (without the reset the next retry
	// would be 320 ms or more away), and are logged again.
	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server
	deadline := time.Now().Add(5 * time.Second)
	var after []acceptCall
	for len(after) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("no restarted streak after a served connection: calls %+v", ln.seen())
		}
		time.Sleep(time.Millisecond)
		after = ln.seen()
		for i, c := range after {
			if c.ok {
				after = after[i:]
				break
			}
		}
		if !after[0].ok {
			after = nil
		}
	}
	if gap := after[2].at.Sub(after[1].at); gap < acceptBackoffMin || gap > 100*time.Millisecond {
		t.Fatalf("first retry after a success came after %v, want about %v", gap, acceptBackoffMin)
	}

	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptLoop did not return after the listener closed")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if n := strings.Count(logs.String(), "accept failed"); n != 2 {
		t.Fatalf("accept failure logged %d times over two streaks, want 2:\n%s", n, logs.String())
	}
}

// lockedWriter serialises a test's log sink against the goroutines
// writing to it.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

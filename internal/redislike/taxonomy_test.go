package redislike

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cuckoograph/internal/resp"
	"cuckoograph/internal/wal"
)

// pipeClient is a raw RESP client for taxonomy tests: it writes whole
// pipelined bursts and reads replies one at a time, so a desynced
// stream shows up as a wrong or missing reply.
type pipeClient struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
	// served is closed when the serve loop behind a servePipe client
	// has returned; nil for a dialled one.
	served chan struct{}
}

// serveConn starts s.serve — the loop a TCP connection gets: parse,
// serveRequest, commit before flush, flush — on one end of an in-memory
// connection and returns the other, with a channel closed once the loop
// has returned.
func serveConn(s *Server) (net.Conn, chan struct{}) {
	cli, conn := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serve(conn)
	}()
	return cli, served
}

// servePipe returns a client on a serveConn connection, for a test that
// holds one connection across commands. hangup ends it.
func servePipe(t *testing.T, s *Server) *pipeClient {
	cli, served := serveConn(s)
	p := &pipeClient{t: t, c: cli, r: bufio.NewReader(cli), w: bufio.NewWriter(cli), served: served}
	t.Cleanup(p.hangup)
	return p
}

// hangup closes a servePipe client and waits for its serve loop, so
// the connection's last commit is done and its count given back.
func (p *pipeClient) hangup() {
	p.c.Close()
	<-p.served
}

// do sends one command and returns its reply.
func (p *pipeClient) do(args ...string) resp.Value {
	p.t.Helper()
	p.push(args...)
	p.flush()
	return p.read()
}

func dialPipe(t *testing.T, addr string) *pipeClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &pipeClient{t: t, c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// addCommand installs a test-only command that takes no arguments into
// s's table and returns its row. Call it before s serves: the table is
// read without a lock.
func addCommand(s *Server, name string, h HandlerFunc) *Command {
	c := &Command{Name: name, Arity: Exactly(0), Summary: "test: " + name, Handler: h}
	s.install([]*Command{c})
	return c
}

// dispatch sends one command on a serveConn connection of its own and
// returns the decoded reply. It returns after the loop has, so the
// connection's last commit is done and its count given back.
func dispatch(s *Server, args ...string) resp.Value {
	cli, served := serveConn(s)
	w := bufio.NewWriter(cli)
	err := resp.Write(w, resp.Command(args...))
	if err == nil {
		err = w.Flush()
	}
	var v resp.Value
	if err == nil {
		cli.SetReadDeadline(time.Now().Add(5 * time.Second))
		v, err = resp.Read(bufio.NewReader(cli))
	}
	cli.Close()
	<-served
	if err != nil {
		panic(fmt.Sprintf("dispatch %q: %v", args, err))
	}
	return v
}

func (p *pipeClient) push(args ...string) {
	p.t.Helper()
	if err := resp.Write(p.w, resp.Command(args...)); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pipeClient) flush() {
	p.t.Helper()
	if err := p.w.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

func (p *pipeClient) read() resp.Value {
	p.t.Helper()
	p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := resp.Read(p.r)
	if err != nil {
		p.t.Fatal(err)
	}
	return v
}

func startGraphServer(t *testing.T, cfg Config) (*Server, *GraphModule, string) {
	t.Helper()
	return startWALServer(t, cfg, "", wal.Options{})
}

// startWALServer boots a graph server the way cgserver boots with
// -wal-dir: EnableWAL on dir (none when dir is "") before Listen.
func startWALServer(t *testing.T, cfg Config, dir string, opts wal.Options) (*Server, *GraphModule, string) {
	t.Helper()
	s := NewServerWith(cfg)
	gm, mod := NewGraphModule()
	if err := s.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		if err := gm.EnableWAL(dir, opts); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, gm, addr
}

// TestErrorReplyCannotForgeTheNext: an error that echoes client bytes
// carrying CRLF — an unknown command name, a COMMAND subcommand — stays
// one reply, so the reply after it is the next command's and not bytes
// the client smuggled in.
func TestErrorReplyCannotForgeTheNext(t *testing.T) {
	p := servePipe(t, NewServer())
	p.push("a\r\n+OK")
	p.push("PING")
	p.push("COMMAND", "x\r\n+OK")
	p.push("PING")
	p.flush()
	for _, want := range []string{"-ERR unknown command 'a  +ok'", "+PONG",
		"-ERR command: unknown subcommand x  +ok (want COUNT, LIST or INFO)", "+PONG"} {
		if got := p.read(); string(got.Type)+got.Str != want {
			t.Fatalf("reply %c%s, want %s", got.Type, got.Str, want)
		}
	}
}

// TestErrorTaxonomyPipelined is the satellite pin: a pipelined burst
// mixing valid commands with every client-side failure mode gets one
// well-formed reply per command, in order, and the connection stays
// usable — an error never desyncs the pipeline.
func TestErrorTaxonomyPipelined(t *testing.T) {
	_, _, addr := startGraphServer(t, Config{})
	p := dialPipe(t, addr)

	p.push("g.insert", "1", "2")       // valid write
	p.push("g.insert", "1")            // arity violation
	p.push("nosuch", "x")              // unknown command
	p.push("g.minsert", "1", "2", "3") // malformed batch (odd args)
	p.push("g.insert", "x", "2")       // malformed node id
	p.push("g.query", "1", "2")        // valid read, must still be answered
	p.flush()

	if got := p.read(); got.Int != 1 {
		t.Fatalf("reply 1 (insert) = %+v", got)
	}
	if got := p.read(); got.Type != '-' || got.Str != "ERR wrong number of arguments for 'g.insert' command" {
		t.Fatalf("reply 2 (arity) = %+v", got)
	}
	if got := p.read(); got.Type != '-' || got.Str != "ERR unknown command 'nosuch'" {
		t.Fatalf("reply 3 (unknown) = %+v", got)
	}
	if got := p.read(); got.Type != '-' || !strings.HasPrefix(got.Str, "ERR g.minsert: expected <u> <v>") {
		t.Fatalf("reply 4 (odd batch) = %+v", got)
	}
	if got := p.read(); got.Type != '-' || !strings.HasPrefix(got.Str, `ERR g.insert: bad node id "x"`) {
		t.Fatalf("reply 5 (bad id) = %+v", got)
	}
	if got := p.read(); got.Int != 1 {
		t.Fatalf("reply 6 (query) = %+v", got)
	}

	// The connection survived every error in the burst.
	p.push("PING")
	p.flush()
	if got := p.read(); got.Str != "PONG" {
		t.Fatalf("post-burst PING = %+v", got)
	}
}

// TestMaxClientsRejected pins admission control: the connection over
// the limit is answered with -MAXCLIENTS and closed — not hung.
func TestMaxClientsRejected(t *testing.T) {
	_, _, addr := startGraphServer(t, Config{MaxConns: 1})

	p1 := dialPipe(t, addr)
	p1.push("PING")
	p1.flush()
	if got := p1.read(); got.Str != "PONG" {
		t.Fatalf("first conn PING = %+v", got)
	}

	p2 := dialPipe(t, addr)
	p2.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := resp.Read(p2.r)
	if err != nil {
		t.Fatalf("over-limit conn: want MAXCLIENTS reply, got read error %v", err)
	}
	if v.Type != '-' || v.Str != "MAXCLIENTS connection limit of 1 reached" {
		t.Fatalf("over-limit reply = %+v", v)
	}
	if _, err := resp.Read(p2.r); err == nil {
		t.Fatal("over-limit conn not closed after reject")
	}

	// Dropping the first connection frees the slot.
	p1.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p3 := dialPipe(t, addr)
		p3.push("PING")
		p3.flush()
		p3.c.SetReadDeadline(time.Now().Add(time.Second))
		v, err := resp.Read(p3.r)
		if err == nil && v.Str == "PONG" {
			break
		}
		p3.c.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after first conn closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestProtocolErrorReplies pins the malformed-frame path: garbage bytes
// get a typed error reply before the (unrecoverable) connection closes.
func TestProtocolErrorReplies(t *testing.T) {
	_, _, addr := startGraphServer(t, Config{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("!garbage\r\n")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	v, err := resp.Read(bufio.NewReader(c))
	if err != nil {
		t.Fatalf("want protocol error reply, got %v", err)
	}
	if v.Type != '-' || !strings.HasPrefix(v.Str, "ERR protocol: ") {
		t.Fatalf("protocol error reply = %+v", v)
	}
}

// TestUnknownCommandsPoolInMetrics: unknown names must not create
// per-name meters (an attacker could otherwise grow the meter set
// without bound); they pool under "unknown".
func TestUnknownCommandsPoolInMetrics(t *testing.T) {
	s, _, addr := startGraphServer(t, Config{})
	p := dialPipe(t, addr)
	p.push("nosuch1")
	p.push("nosuch2")
	p.push("PING")
	p.flush()
	p.read()
	p.read()
	if got := p.read(); got.Str != "PONG" {
		t.Fatalf("PING = %+v", got)
	}
	if got := s.metrics.unknown.calls.Load(); got != 2 {
		t.Fatalf("unknown pool = %d, want 2", got)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\ncg_commands_total{cmd=\"unknown\"} 2\n") ||
		strings.Contains(sb.String(), `cmd="nosuch1"`) {
		t.Fatalf("scrape does not pool unknown commands:\n%s", sb.String())
	}
}

// Package redislike is a small in-process Redis-like server: a TCP
// RESP2 front end with a command registry, hosting the graph module of
// the paper's Redis integration (§V-F). PING and COMMAND are its only
// built-ins; the module provides G.INSERT, G.DEL, the batched
// G.MINSERT/G.MDEL, G.QUERY, G.GETNEIGHBORS, G.DEGREE, G.NODES,
// snapshots, analytics, WAL control and log-shipping replication.
//
// Every command is a Command registration — name, arity spec, flags,
// handler — and dispatch is entirely registry-driven: arity is enforced
// before the handler runs, write-flagged commands are rejected while a
// recovery is loading, and the COMMAND/G.INFO introspection output
// is generated from the same registrations. Handlers return typed
// errors (see errors.go) that dispatch maps onto RESP error classes, so
// a failure is always a well-formed reply in pipeline order.
//
// The serving plane is allocation-free for warm hot commands: requests
// are parsed into byte-slice views of the connection's read buffer,
// each connection reuses one Ctx (with name/batch/ids scratch) and one
// streaming resp.Writer that handlers append replies into, and
// per-command metrics are resolved once at registration instead of per
// call. The read loop pipelines: replies accumulate in the writer and
// are flushed when the input buffer drains or the buffered replies
// pass the flush high-water mark, so a burst of commands pays one
// write(2) for all its replies. Connections are admission-controlled
// (MaxConns rejects with -MAXCLIENTS rather than hanging the dial),
// commands run under per-command read/write deadlines, and Shutdown
// drains: in-flight commands finish and flush, then the graph module
// tears down.
//
// Durability follows the same rhythm. A write command applies its
// mutation and stages it in the log's memory; the serve loop commits —
// one log write for everything staged, by this connection and any
// other — before every reply flush, on every connection, so no reply,
// read or write, leaves the server reflecting a mutation that is not
// yet durable per the sync policy. When that commit fails the server
// degrades rather than lies: every write reply buffered since the last
// good commit is rewritten to -WALERR (reads keep their answers), later
// writes answer -MISCONF while reads keep serving, and wal_resume
// restores write service once the storage is fixed. See README.md
// § Failure modes & degraded operation for the policy knobs and runbook.
package redislike

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cuckoograph/internal/resp"
)

// Config tunes a server. The zero value is a permissive development
// server: unlimited connections, no deadlines, discarded logs.
type Config struct {
	// MaxConns bounds concurrently served connections; a connection over
	// the limit receives -MAXCLIENTS and is closed. 0 means unlimited.
	MaxConns int
	// ReadTimeout bounds how long the remainder of a command may take to
	// arrive once its first byte has (idle waits are unbounded). 0
	// disables it.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write/flush; a client that stops
	// reading is disconnected instead of wedging its serve goroutine. 0
	// disables it.
	WriteTimeout time.Duration
	// Logger receives structured server logs; nil discards them.
	Logger *slog.Logger
}

// Module is the opaque handle NewGraphModule returns for LoadModule. It
// exists so that the `gm, mod := NewGraphModule(); srv.LoadModule(mod)`
// call shape of the binaries and the benchmark harness keeps compiling.
type Module struct{ gm *GraphModule }

// Server is a single-node redislike instance. There is no global
// command lock: handlers run concurrently and the graph module does its
// own synchronisation (it locks per shard), so commands touching
// different shards execute in parallel across connections.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *Registry
	metrics *Metrics

	// gm is the loaded graph module (nil until LoadModule), written
	// before Listen. The server calls it directly: commit before every
	// reply flush, collectMetrics on every scrape, Close at Shutdown.
	gm *GraphModule

	// loading is set while a recovery (wal_replay) rebuilds and restores
	// the graph; dispatch rejects write-flagged commands with -LOADING
	// for its duration.
	loading atomic.Bool

	// readOnly marks a replica: dispatch rejects write-flagged commands
	// with -READONLY. The replication apply path bypasses dispatch
	// (ApplyBatch straight into the engine), so the flag only gates
	// clients.
	readOnly atomic.Bool

	// degraded marks the WAL-failed serving mode: dispatch rejects
	// write-flagged commands with -MISCONF while reads keep serving.
	// degradedReason (guarded by degradedMu, read rarely) says why, for
	// error replies, G.INFO and /readyz.
	degraded       atomic.Bool
	degradedMu     sync.Mutex
	degradedReason string

	ln     net.Listener
	closed chan struct{} // closed when Shutdown begins

	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error

	// connMu/conns/connWG let Shutdown drain: it interrupts idle
	// readers, waits for each serve goroutine to finish (and flush) the
	// command in flight, and only then tears the module down — so
	// post-drain teardown (closing the WAL) cannot race an
	// acknowledgement.
	connMu     sync.Mutex
	conns      map[*resp.Conn]struct{}
	connWG     sync.WaitGroup
	metricsSrv *http.Server

	// pprofOn mounts /debug/pprof/ on the metrics listener (EnablePprof).
	pprofOn atomic.Bool
}

// NewServer returns a server with the built-in commands registered and
// a permissive default Config.
func NewServer() *Server { return NewServerWith(Config{}) }

// NewServerWith returns a server tuned by cfg.
func NewServerWith(cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:          cfg,
		log:          log,
		reg:          NewRegistry(),
		metrics:      &Metrics{start: time.Now()},
		closed:       make(chan struct{}),
		shutdownDone: make(chan struct{}),
		conns:        make(map[*resp.Conn]struct{}),
	}
	s.registerBuiltins()
	return s
}

// Registry exposes the command registry (introspection, tests).
func (s *Server) Registry() *Registry { return s.reg }

// SetLoading flips the recovery-in-progress flag; while set, dispatch
// rejects write-flagged commands with -LOADING.
func (s *Server) SetLoading(on bool) { s.loading.Store(on) }

// SetReadOnly flips replica mode: while set, write-flagged commands
// are rejected with -READONLY.
func (s *Server) SetReadOnly(on bool) { s.readOnly.Store(on) }

// ReadOnly reports whether the server rejects writes (replica mode).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// SetDegraded transitions the server into degraded read-only mode:
// write-flagged commands are rejected with -MISCONF until
// ClearDegraded, while reads keep serving. It reports whether this call
// made the transition (false if already degraded), so callers on the
// hot error path can log and count the edge exactly once.
func (s *Server) SetDegraded(reason string) bool {
	s.degradedMu.Lock()
	s.degradedReason = reason
	s.degradedMu.Unlock()
	return s.degraded.CompareAndSwap(false, true)
}

// ClearDegraded leaves degraded mode — the wal_resume path, after the
// log is writable again.
func (s *Server) ClearDegraded() {
	s.degraded.Store(false)
	s.degradedMu.Lock()
	s.degradedReason = ""
	s.degradedMu.Unlock()
}

// Degraded reports whether the server is rejecting writes after a WAL
// failure.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// DegradedReason returns why the server is degraded ("" when it isn't).
func (s *Server) DegradedReason() string {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return s.degradedReason
}

// Ready reports whether the server should receive traffic: nil when
// ready, otherwise the first failing condition. Distinct from liveness
// (/healthz): a degraded or loading server is alive but not ready, and
// so is a replica that has not finished bootstrapping from its leader.
func (s *Server) Ready() error {
	if s.draining() {
		return &ShutdownError{}
	}
	if s.loading.Load() {
		return &LoadingError{}
	}
	if s.degraded.Load() {
		return &DegradedError{Reason: s.DegradedReason()}
	}
	if s.gm != nil {
		if r := s.gm.replica.Load(); r != nil && !r.Bootstrapped() {
			return fmt.Errorf("replica still bootstrapping from %s", r.Leader())
		}
	}
	return nil
}

// LoadModule loads the graph module (--loadmodule equivalent): its
// commands join the registry, and the module reaches the server's
// loading, read-only and degraded flags and its logger. A server hosts
// one graph module; a second is refused before anything is registered.
// Call it before Listen.
func (s *Server) LoadModule(m *Module) error {
	if s.gm != nil {
		return fmt.Errorf("redislike: a graph module is already loaded")
	}
	gm := m.gm
	cmds := gm.moduleCommands()
	for _, c := range cmds {
		if err := s.reg.Register(c); err != nil {
			return err
		}
	}
	s.gm, gm.srv = gm, s
	gm.log = s.log.With("module", "cuckoograph")
	s.log.Info("module loaded", "module", "cuckoograph", "commands", len(cmds))
	return nil
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	s.log.Info("listening", "addr", ln.Addr().String(), "commands", s.reg.Len(),
		"max_conns", s.cfg.MaxConns)
	return ln.Addr().String(), nil
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Shutdown gracefully stops the server: the listener closes, idle
// connections are interrupted, in-flight commands finish and their
// replies flush, and once every connection has drained (or ctx
// expires, at which point survivors are force-closed) the graph module
// tears down: it releases the snapshot ring and closes the WAL, in that
// order. Shutdown is
// idempotent; every caller observes the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.log.Info("shutdown: draining connections", "active", s.metrics.connsActive.Load())
		close(s.closed)
		if s.ln != nil {
			s.ln.Close()
		}
		// Interrupt readers parked in their idle wait so their serve
		// loops observe the drain; a goroutine mid-command is untouched
		// and finishes its reply first.
		s.connMu.Lock()
		for c := range s.conns {
			c.Abort()
		}
		s.connMu.Unlock()
		done := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.connMu.Lock()
			n := len(s.conns)
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			s.log.Warn("shutdown: drain deadline exceeded; force-closing", "conns", n)
			<-done
		}
		if s.metricsSrv != nil {
			s.metricsSrv.Close()
		}
		var err error
		if s.gm != nil {
			if err = s.gm.Close(); err != nil {
				s.log.Error("shutdown: module close failed", "err", err)
			}
		}
		s.shutdownErr = err
		s.log.Info("shutdown complete", "err", err)
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	return s.shutdownErr
}

// Close stops the server immediately: like Shutdown but without a
// drain grace period — live connections are force-closed and their
// in-flight handlers run to completion before the module tears down.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

// admit decides whether a new connection may be served, tracking it if
// so. The returned error (taxonomy-typed) is written to rejected
// connections before closing — admission control answers, never hangs.
func (s *Server) admit(c *resp.Conn) error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining() {
		return &ShutdownError{}
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return &MaxClientsError{Limit: s.cfg.MaxConns}
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	s.metrics.connsAccepted.Add(1)
	s.metrics.connsActive.Add(1)
	return nil
}

func (s *Server) untrack(c *resp.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.metrics.connsActive.Add(-1)
	s.connWG.Done()
}

// Accept back-off bounds, as in net/http.Server.Serve: a failing
// listener (EMFILE at the descriptor limit) is retried after a delay
// that doubles per consecutive failure, so the loop neither spins nor
// starves the connections whose close would free descriptors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	var delay time.Duration
	for {
		conn, err := s.ln.Accept()
		if err == nil {
			delay = 0
			go s.serve(conn)
			continue
		}
		if errors.Is(err, net.ErrClosed) || s.draining() {
			return
		}
		if delay == 0 {
			// Once per streak: the retries that follow say nothing new.
			s.log.Warn("accept failed; backing off", "err", err)
		}
		delay = min(max(2*delay, acceptBackoffMin), acceptBackoffMax)
		select {
		case <-s.closed:
			return
		case <-time.After(delay):
		}
	}
}

// flushHighWater bounds how many reply bytes may accumulate before a
// pipelined burst forces an intermediate flush: without it a deep
// pipeline of large replies would buffer the whole burst in memory.
const flushHighWater = 64 << 10

func (s *Server) serve(nc net.Conn) {
	c := resp.NewConn(nc)
	c.ReadTimeout = s.cfg.ReadTimeout
	c.WriteTimeout = s.cfg.WriteTimeout
	if err := s.admit(c); err != nil {
		// Reject with a typed error reply, then close: the client learns
		// why instead of watching a hang or a bare RST.
		s.metrics.connsRejected.Add(1)
		s.log.Debug("connection rejected", "remote", c.RemoteAddr(), "reason", err.Error())
		c.W.AppendError(errorClass(err) + " " + err.Error())
		c.Flush()
		c.Close()
		return
	}
	defer c.Close()
	defer s.untrack(c)
	remote, commands := c.RemoteAddr(), 0
	// One Ctx per connection, reused across every command it serves:
	// its scratch buffers are what keep the command cycle allocation-
	// free once warm.
	ctx := &Ctx{srv: s, w: &c.W, rc: c}
	s.log.Debug("connection accepted", "remote", remote)
	defer func() {
		s.log.Debug("connection closed", "remote", remote, "commands", commands)
	}()
	for {
		req, err := c.ReadRequest()
		if err != nil {
			if errors.Is(err, resp.ErrProtocol) {
				// The stream is desynced beyond this point; answer with a
				// typed error so the client knows why, then drop it.
				perr := &BadArgError{Cmd: "protocol", Detail: err.Error()}
				c.W.AppendError(errorClass(perr) + " " + perr.Error())
				s.flush(ctx)
				s.log.Debug("protocol error", "remote", remote, "err", err)
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, resp.ErrAborted) {
				s.log.Debug("read failed", "remote", remote, "err", err)
			}
			// A client that went away mid-pipeline may have staged writes
			// whose replies it will never read; commit them all the same,
			// so nothing sits in the log's memory behind a dead connection.
			s.commit(ctx)
			return
		}
		commands++
		if c.Filled() {
			// The read may have waited on the client: the previous
			// command's end stamp is not this one's start.
			ctx.stamp = time.Time{}
		}
		s.serveRequest(ctx, req.Args)
		if ctx.hijacked {
			// The handler took the connection over (replication stream)
			// and owned it until its stream ended; nothing more can be
			// served on it.
			s.commit(ctx)
			return
		}
		// Pipelining: while the client has already sent more commands,
		// keep replies buffered and dispatch straight into the backlog —
		// one log commit and one syscall then answer the whole burst.
		// Flush when the input drains (the next read would block) or the
		// reply buffer passes the high-water mark.
		if c.Buffered() == 0 || c.W.Len() >= flushHighWater {
			if err := s.flush(ctx); err != nil {
				s.log.Debug("flush failed", "remote", remote, "err", err)
				return
			}
		}
		if s.draining() {
			// The in-flight command was served and flushed; no new work
			// starts on a draining server.
			s.flush(ctx)
			return
		}
	}
}

// flush is the one way replies leave a connection: commit, then write.
// The time it takes belongs to no command, so the next one reads the
// clock afresh.
func (s *Server) flush(ctx *Ctx) error {
	s.commit(ctx)
	ctx.stamp = time.Time{}
	return ctx.rc.Flush()
}

// commit makes everything staged so far durable — the mutations behind
// this connection's buffered write replies, and any other connection's
// that its reads may have observed — through the graph module's commit.
// It must precede every flush. If the commit fails, the write replies
// buffered since the last one acknowledge mutations that are applied
// but not durable: each is rewritten to -WALERR, and the reads between
// them keep their answers.
func (s *Server) commit(ctx *Ctx) {
	if s.gm != nil {
		if err := s.gm.commit(); err != nil {
			// Last to first, so the marks of the replies still to rewrite
			// stay valid.
			for i := len(ctx.uncommitted) - 1; i >= 0; i-- {
				r := ctx.uncommitted[i]
				e := &WALError{Cmd: r.cmd.Name, Err: err}
				ctx.w.SpliceError(r.from, r.to, errorClass(e)+" "+e.Error())
				r.cmd.metrics.errs.Add(1)
			}
		}
	}
	ctx.uncommitted = ctx.uncommitted[:0]
}

// serveRequest is the registry-driven command path: resolve, enforce
// arity, apply flag policy, run the handler, map typed errors to RESP
// classes, meter everything. Exactly one well-formed reply lands in the
// ctx's writer — a handler error rewinds any partial output first, so
// pipelined replies never desync. The clock is read once per command:
// ctx.stamp, when set, is the end of the previous command and this
// one's start, and is left as this one's end.
func (s *Server) serveRequest(ctx *Ctx, args [][]byte) {
	w := ctx.w
	if len(args) == 0 {
		e := &BadArgError{Cmd: "protocol", Detail: "expected command array"}
		w.AppendError(errorClass(e) + " " + e.Error())
		return
	}
	ctx.nameBuf = appendLower(ctx.nameBuf[:0], args[0])
	start := ctx.stamp
	if start.IsZero() {
		start = time.Now()
	}
	cmd, ok := s.reg.LookupBytes(ctx.nameBuf)
	if !ok {
		e := &UnknownCommandError{Cmd: string(ctx.nameBuf)}
		w.AppendError(errorClass(e) + " " + e.Error())
		ctx.stamp = time.Now()
		s.metrics.unknown.observe(ctx.stamp.Sub(start), true)
		return
	}
	var err error
	switch {
	case !cmd.Arity.Check(len(args) - 1):
		err = &ArityError{Cmd: cmd.Name}
	case cmd.Flags&FlagWrite != 0 && s.loading.Load():
		err = &LoadingError{}
	case cmd.Flags&FlagWrite != 0 && s.readOnly.Load():
		err = &ReadOnlyError{Cmd: cmd.Name}
	case cmd.Flags&FlagWrite != 0 && s.degraded.Load():
		err = &DegradedError{Cmd: cmd.Name, Reason: s.DegradedReason()}
	default:
		ctx.Name = cmd.Name
		ctx.Args = args[1:]
		ctx.hijacked, ctx.staged = false, false
		mark := w.Mark()
		before := w.Len()
		if err = cmd.Handler(ctx); err != nil {
			w.Rewind(mark)
		} else if ctx.staged {
			ctx.uncommitted = append(ctx.uncommitted, stagedReply{cmd: cmd, from: mark, to: w.Mark()})
		} else if !ctx.hijacked && w.Len() == before {
			err = fmt.Errorf("command %q produced no reply", cmd.Name)
		}
	}
	if err != nil {
		w.AppendError(errorClass(err) + " " + err.Error())
	}
	ctx.stamp = time.Now()
	cmd.metrics.observe(ctx.stamp.Sub(start), err != nil)
}

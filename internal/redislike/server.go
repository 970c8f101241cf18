// Package redislike is a small in-process Redis-like server: a TCP
// RESP2 front end with a fixed command table, hosting the graph module
// of the paper's Redis integration (§V-F). PING and COMMAND are its
// only built-ins; the module provides G.INSERT, G.DEL, the batched
// G.MINSERT/G.MDEL, G.QUERY, G.GETNEIGHBORS, G.DEGREE, G.NODES,
// snapshots, analytics, WAL control and log-shipping replication.
// Durability is fixed at boot: GraphModule.EnableWAL recovers the graph
// from its directory and opens the log before Listen, and at run time
// the log is only checkpointed (CHECKPOINT) or reopened after a storage
// failure (WAL_RESUME).
//
// Every command is a row of one table — name, arity spec, flags,
// handler — built before the server listens and read without a lock
// after: arity is enforced before the handler runs, write-flagged
// commands are rejected on a replica (a server is one exactly when its
// module follows a leader) and in degraded mode, and the COMMAND/G.INFO
// introspection output is generated from the same rows.
// Handlers return errors that carry their RESP error class (see
// errors.go), so a failure is always a well-formed reply in pipeline
// order.
//
// The serving plane is allocation-free for warm hot commands: requests
// are parsed into byte-slice views of the connection's read buffer,
// each connection reuses one Ctx (with name/batch/ids scratch) and one
// streaming resp.Writer that handlers append replies into, and
// per-command metrics hang off the table row instead of being looked
// up per call. The read loop pipelines: replies accumulate in the
// writer and are flushed when the input buffer drains or the buffered
// replies pass the flush high-water mark, so a burst of commands pays
// one write(2) for all its replies. Connections are admission-controlled
// (MaxConns rejects with -MAXCLIENTS rather than hanging the dial),
// commands run under per-command read/write deadlines, and Shutdown
// drains: in-flight commands finish and flush, then the graph module
// tears down.
//
// Durability follows the same rhythm. The four write commands share one
// handler: it decodes their ⟨u,v⟩ pairs into a batch of one op kind,
// applies it and stages it in the log's memory; the serve loop commits —
// one log write for everything staged, by this connection and any
// other — before every reply flush, on every connection, so no reply,
// read or write, leaves the server reflecting a mutation that is not
// yet durable per the sync policy. When that commit fails the server
// degrades rather than lies: every write reply buffered since the last
// good commit is rewritten to -WALERR (reads keep their answers), later
// writes answer -MISCONF while reads keep serving, and wal_resume —
// refused on a healthy server — restores write service once the
// storage is fixed. See README.md § Failure modes & degraded operation
// for the policy knobs and runbook.
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
	metrics *Metrics

	// cmds is the command table and sorted its rows in name order (see
	// install): filled before Listen, read-only after.
	cmds   map[string]*Command
	sorted []*Command

	// gm is the loaded graph module (nil until LoadModule), written
	// before Listen. The server calls it directly: commit before every
	// reply flush, collectMetrics on every scrape, Close at Shutdown.
	gm *GraphModule

	// listening is set by Listen. Durability is fixed at boot:
	// EnableWAL is refused once it is set.
	listening atomic.Bool

	// degraded is the WAL-failed serving mode, nil while healthy: the
	// reason, for error replies, G.INFO and /readyz. While it is set
	// dispatch rejects write-flagged commands with -MISCONF and reads
	// keep serving. Each reader loads it once, so the flag and its
	// reason can never disagree.
	degraded atomic.Pointer[string]

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
		cmds:         make(map[string]*Command),
		metrics:      &Metrics{start: time.Now()},
		closed:       make(chan struct{}),
		shutdownDone: make(chan struct{}),
		conns:        make(map[*resp.Conn]struct{}),
	}
	s.install(s.builtins())
	return s
}

// setDegraded moves the server into degraded read-only mode:
// write-flagged commands are rejected with -MISCONF until
// clearDegraded, while reads keep serving. It reports whether this call
// made the transition (false if already degraded, the first reason
// kept), so the caller on the hot error path logs the edge exactly once.
func (s *Server) setDegraded(reason string) bool {
	return s.degraded.CompareAndSwap(nil, &reason)
}

// clearDegraded leaves degraded mode — the wal_resume path, after the
// log is writable again.
func (s *Server) clearDegraded() { s.degraded.Store(nil) }

// Degraded reports whether the server is rejecting writes after a WAL
// failure.
func (s *Server) Degraded() bool { return s.degraded.Load() != nil }

// Ready reports whether the server should receive traffic: nil when
// ready, otherwise the first failing condition. Distinct from liveness
// (/healthz): a degraded server is alive but not ready, and
// so is a replica that has not finished bootstrapping from its leader.
func (s *Server) Ready() error {
	if s.draining() {
		return errShutdown
	}
	if r := s.degraded.Load(); r != nil {
		return degradedError("", *r)
	}
	if s.gm != nil {
		if r := s.gm.replica.Load(); r != nil && !r.Bootstrapped() {
			return fmt.Errorf("replica still bootstrapping from %s", r.Leader())
		}
	}
	return nil
}

// LoadModule loads the graph module (--loadmodule equivalent): its
// commands join the table, and the module reaches the server's
// listening and degraded state and its logger. A server hosts
// one graph module; a second is refused before anything is installed.
// Call it before Listen.
func (s *Server) LoadModule(m *Module) error {
	if s.gm != nil {
		return fmt.Errorf("redislike: a graph module is already loaded")
	}
	gm := m.gm
	cmds := gm.moduleCommands()
	s.install(cmds)
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
	s.listening.Store(true)
	go s.acceptLoop()
	s.log.Info("listening", "addr", ln.Addr().String(), "commands", len(s.sorted),
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
// so. The returned error (it carries its class) is written to rejected
// connections before closing — admission control answers, never hangs.
func (s *Server) admit(c *resp.Conn) error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining() {
		return errShutdown
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return &Error{Class: ClassMaxClients, Msg: fmt.Sprintf("connection limit of %d reached", s.cfg.MaxConns)}
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
		// Reject with an error reply, then close: the client learns
		// why instead of watching a hang or a bare RST.
		s.metrics.connsRejected.Add(1)
		s.log.Debug("connection rejected", "remote", c.RemoteAddr(), "reason", err.Error())
		c.W.AppendError(errorReply(err))
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
	ctx := &Ctx{w: &c.W, rc: c}
	s.log.Debug("connection accepted", "remote", remote)
	defer func() {
		s.log.Debug("connection closed", "remote", remote, "commands", commands)
	}()
	for {
		req, err := c.ReadRequest()
		if err != nil {
			if errors.Is(err, resp.ErrProtocol) {
				// The stream is desynced beyond this point; answer with a
				// error so the client knows why, then drop it.
				c.W.AppendError(errorReply(badArg("protocol", err.Error())))
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
				ctx.w.SpliceError(r.from, r.to, errorReply(walError(r.cmd.Name, err)))
				r.cmd.metrics.errs.Add(1)
			}
		}
	}
	ctx.uncommitted = ctx.uncommitted[:0]
}

// serveRequest is the one command path: resolve in the table, enforce
// arity, apply flag policy, run the handler, render an error as its
// class and message, meter everything. Exactly one well-formed reply
// lands in the ctx's writer — a handler error rewinds any partial
// output first, so pipelined replies never desync. The clock is read
// once per command: ctx.stamp, when set, is the end of the previous
// command and this one's start, and is left as this one's end. Scratch
// the command grew past its bound is dropped after it (see
// Ctx.trimScratch).
func (s *Server) serveRequest(ctx *Ctx, args [][]byte) {
	defer ctx.trimScratch()
	w := ctx.w
	if len(args) == 0 {
		w.AppendError(errorReply(badArg("protocol", "expected command array")))
		return
	}
	ctx.nameBuf = appendLower(ctx.nameBuf[:0], args[0])
	start := ctx.stamp
	if start.IsZero() {
		start = time.Now()
	}
	cmd, ok := s.cmds[string(ctx.nameBuf)]
	if !ok {
		w.AppendError(errorReply(&Error{Class: ClassErr, Msg: "unknown command '" + string(ctx.nameBuf) + "'"}))
		ctx.stamp = time.Now()
		s.metrics.unknown.observe(ctx.stamp.Sub(start), true)
		return
	}
	var err error
	if !cmd.Arity.Check(len(args) - 1) {
		err = &Error{Class: ClassErr, Msg: "wrong number of arguments for '" + cmd.Name + "' command"}
	} else if cmd.Flags&FlagWrite != 0 {
		err = s.refuseWrite(cmd.Name)
	}
	if err == nil {
		ctx.Name = cmd.Name
		ctx.Args = args[1:]
		ctx.hijacked, ctx.staged = false, false
		mark := w.Mark()
		if err = cmd.Handler(ctx); err != nil {
			w.Rewind(mark)
		} else if ctx.staged {
			ctx.uncommitted = append(ctx.uncommitted, stagedReply{cmd: cmd, from: mark, to: w.Mark()})
		} else if !ctx.hijacked && w.Mark() == mark {
			err = fmt.Errorf("command %q produced no reply", cmd.Name)
		}
	}
	if err != nil {
		w.AppendError(errorReply(err))
	}
	ctx.stamp = time.Now()
	cmd.metrics.observe(ctx.stamp.Sub(start), err != nil)
}

// refuseWrite says why a write-flagged command may not run now: the
// server is a replica (its graph has one writer, the replication
// stream) or degraded; nil lets it run. Only the graph module
// registers write commands, so s.gm is set here.
func (s *Server) refuseWrite(name string) error {
	if s.gm.replica.Load() != nil {
		return &Error{Class: ClassReadOnly, Msg: "cannot execute '" + name + "' against a read-only replica; send writes to the leader"}
	}
	if r := s.degraded.Load(); r != nil {
		return degradedError(name, *r)
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/hashutil"
	"cuckoograph/internal/redislike"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// The srv_* workloads share one preloaded graph shape: srvSources
// sources, even ones with 4 successors (inline) and odd ones with 12
// (chained), successors numbered from 0. Sources whose index is 7 mod 8
// never receive inserts, so their neighbour lists keep a known length.
// Inserted edges use destinations from srvInsertBase up, which no
// preloaded edge has.
const (
	srvInsertBase = 1 << 20
	srvMissDest   = 1 << 19
)

func srvDegree(u uint64) int {
	if u&1 == 0 {
		return 4
	}
	return 12
}

func srvStatic(u uint64) bool { return u&7 == 7 }

// testServer is a redislike server with the graph module, a nosync WAL
// and one client connection over loopback TCP.
type testServer struct {
	srv  *redislike.Server
	gm   *redislike.GraphModule
	conn net.Conn
	br   *bufio.Reader
	// errReplies counts "-" replies, for redislike.cmd_errors.
	errReplies int64
}

func startServer(sources int, dir string) (*testServer, error) {
	srv := redislike.NewServer()
	gm, mod := redislike.NewGraphModule()
	if err := srv.LoadModule(mod); err != nil {
		return nil, fmt.Errorf("loading graph module: %w", err)
	}
	c := core.NewChunker(sharded.LoadBatchSize, func(b core.Batch) { gm.Graph().ApplyBatch(b) })
	for u := uint64(0); u < uint64(sources); u++ {
		for v := 0; v < srvDegree(u); v++ {
			c.Insert(u, uint64(v))
		}
	}
	c.Flush()
	// EnableWAL on a loaded graph cuts the initial checkpoint itself.
	if err := gm.EnableWAL(dir, wal.Options{Sync: walPolicy}); err != nil {
		return nil, fmt.Errorf("enabling WAL: %w", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &testServer{srv: srv, gm: gm, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// stop closes the connection and drains the server; Shutdown returns
// once every serve goroutine has exited and the module closed its WAL.
func (ts *testServer) stop() {
	ts.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ts.srv.Shutdown(ctx)
}

// counters reads the server's own metric samples (the /metrics text).
func (ts *testServer) counters() map[string]float64 {
	var buf bytes.Buffer
	if err := ts.srv.WriteMetrics(&buf); err != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if i := bytes.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(string(line[i+1:]), 64); err == nil {
				out[string(line[:i])] += v
			}
		}
	}
	return out
}

// appendCmd encodes one RESP command whose arguments are unsigned ints.
func appendCmd(dst []byte, name string, args ...uint64) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(1+len(args)), 10)
	dst = append(dst, "\r\n$"...)
	dst = strconv.AppendInt(dst, int64(len(name)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, name...)
	dst = append(dst, "\r\n"...)
	var num [20]byte
	for _, a := range args {
		s := strconv.AppendUint(num[:0], a, 10)
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, s...)
		dst = append(dst, "\r\n"...)
	}
	return dst
}

// A reply expectation is the integer a ":" reply must carry, or, for an
// array reply, arrayOf(n): n bulk elements.
func arrayOf(n int) int64 { return -1 - int64(n) }

// readReply parses one reply and reports whether it is the expected one.
// It allocates nothing.
func (ts *testServer) readReply(want int64) (bool, error) {
	br := ts.br
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 3 {
		return false, fmt.Errorf("short reply %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case ':':
		n, ok := parseInt(body)
		return ok && n == want, nil
	case '*':
		n, ok := parseInt(body)
		if !ok {
			return false, fmt.Errorf("bad array header %q", line)
		}
		for i := int64(0); i < n; i++ {
			hdr, err := br.ReadSlice('\n')
			if err != nil {
				return false, err
			}
			if len(hdr) < 4 || hdr[0] != '$' {
				return false, fmt.Errorf("bad bulk header %q", hdr)
			}
			size, ok := parseInt(hdr[1 : len(hdr)-2])
			if !ok {
				return false, fmt.Errorf("bad bulk length %q", hdr)
			}
			if _, err := br.Discard(int(size) + 2); err != nil {
				return false, err
			}
		}
		return want == arrayOf(int(n)), nil
	case '-':
		ts.errReplies++
		return false, nil
	default:
		return false, nil
	}
}

func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// cmdStream holds a round's pre-encoded commands: command i is
// enc[off[i]:off[i+1]] and must be answered with want[i].
type cmdStream struct {
	enc  []byte
	off  []int
	want []int64
	// calls are the same commands as engine calls, for the layer ladder.
	calls []srvCall
	// inserted deletes the edges the round's g.insert commands add; the
	// round applies it afterwards, so every round starts from the
	// preloaded graph.
	inserted core.Batch
}

// srvCall is a command in engine terms: its name and node arguments
// (g.degree and g.getneighbors take only u).
type srvCall struct {
	name string
	u, v uint64
}

func (c srvCall) encode(dst []byte) []byte {
	if c.name == "g.degree" || c.name == "g.getneighbors" {
		return appendCmd(dst, c.name, c.u)
	}
	return appendCmd(dst, c.name, c.u, c.v)
}

// srvGen draws the commands of both server workloads.
type srvGen struct {
	rng     *hashutil.RNG
	sources uint64
	nextDst uint64
	added   []uint16 // inserts so far this round, per source
}

func newSrvGen(seed uint64, sz sizes) *srvGen {
	return &srvGen{rng: hashutil.NewRNG(seed ^ 0x5e7fe7), sources: uint64(sz.srvSources), nextDst: srvInsertBase,
		added: make([]uint16, sz.srvSources)}
}

// insert adds a new edge to a source that takes inserts.
func (g *srvGen) insert() (srvCall, int64) {
	u := g.rng.Uint64n(g.sources)
	for srvStatic(u) {
		u = g.rng.Uint64n(g.sources)
	}
	c := srvCall{"g.insert", u, g.nextDst}
	g.added[u]++
	g.nextDst++
	return c, 1
}

// query asks for a present edge three times in four, else an absent one.
func (g *srvGen) query() (srvCall, int64) {
	u := g.rng.Uint64n(g.sources)
	if g.rng.Intn(4) > 0 {
		return srvCall{"g.query", u, uint64(g.rng.Intn(srvDegree(u)))}, 1
	}
	return srvCall{"g.query", u, srvMissDest}, 0
}

// degree is answered after every insert queued before it on the same
// connection, so the expected value counts this round's inserts so far.
func (g *srvGen) degree() (srvCall, int64) {
	u := g.rng.Uint64n(g.sources)
	return srvCall{"g.degree", u, 0}, int64(srvDegree(u)) + int64(g.added[u])
}

// neighbors lists a source that never takes inserts.
func (g *srvGen) neighbors() (srvCall, int64) {
	u := g.rng.Uint64n(g.sources/8)<<3 | 7
	return srvCall{"g.getneighbors", u, 0}, arrayOf(srvDegree(u))
}

// stream draws n commands with the given percentage mix; the remainder
// is g.getneighbors.
func (g *srvGen) stream(n, pctInsert, pctQuery, pctDegree int) *cmdStream {
	cs := &cmdStream{off: make([]int, 0, n+1), want: make([]int64, 0, n), calls: make([]srvCall, 0, n)}
	for i := 0; i < n; i++ {
		var c srvCall
		var want int64
		switch p := g.rng.Intn(100); {
		case p < pctInsert:
			c, want = g.insert()
			cs.inserted = append(cs.inserted, core.DeleteOp(c.u, c.v))
		case p < pctInsert+pctQuery:
			c, want = g.query()
		case p < pctInsert+pctQuery+pctDegree:
			c, want = g.degree()
		default:
			c, want = g.neighbors()
		}
		cs.off = append(cs.off, len(cs.enc))
		cs.enc = c.encode(cs.enc)
		cs.want = append(cs.want, want)
		cs.calls = append(cs.calls, c)
	}
	cs.off = append(cs.off, len(cs.enc))
	return cs
}

// undo deletes the round's inserted edges straight through the engine
// and forgets them, restoring the preloaded graph.
func (g *srvGen) undo(graph *sharded.Graph, cs *cmdStream) bool {
	res := graph.ApplyBatch(cs.inserted)
	clear(g.added)
	return res.Deleted == uint64(len(cs.inserted))
}

func (cs *cmdStream) hash() uint64 {
	h := newFNV()
	for _, c := range cs.enc {
		h.addByte(c)
	}
	return uint64(h)
}

// ---- srv_pipeline ----

const pipeDepth = 16

func pipeStream(g *srvGen, sz sizes) *cmdStream {
	return g.stream(sz.pipeCmds/pipeDepth*pipeDepth, 50, 40, 10)
}

func hashSrvPipeline(seed uint64, sz sizes) uint64 { return pipeStream(newSrvGen(seed, sz), sz).hash() }

// walDelta is the growth of the server's WAL counters over a window.
func walDelta(before, after map[string]float64) (bytes, ops uint64) {
	return uint64(after["cg_wal_bytes_total"] - before["cg_wal_bytes_total"]),
		uint64(after["cg_wal_ops_total"] - before["cg_wal_ops_total"])
}

// exchange writes commands [lo,hi) of cs as one burst and reads their
// replies, returning how many were wrong. On a traced run it records the
// burst's write, wait and read phases.
func (ts *testServer) exchange(cs *cmdStream, lo, hi int, tr *tracer, parent int32, round int) (bad int64, err error) {
	t0 := time.Now()
	if _, err := ts.conn.Write(cs.enc[cs.off[lo]:cs.off[hi]]); err != nil {
		return 0, err
	}
	var t1, t2 time.Time
	if tr != nil {
		t1 = time.Now()
		if _, err := ts.br.Peek(1); err != nil {
			return 0, err
		}
		t2 = time.Now()
	}
	for i := lo; i < hi; i++ {
		ok, err := ts.readReply(cs.want[i])
		if err != nil {
			return bad, err
		}
		if !ok {
			bad++
		}
	}
	if tr != nil {
		// The server's interior is invisible from here: the wait for
		// the first reply byte is charged to it whole, loopback included.
		tr.add(parent, round, layerBenchmark, "client.write", t0, t1)
		tr.add(parent, round, layerRedislike, "client.wait", t1, t2)
		tr.add(parent, round, layerBenchmark, "client.read", t2, time.Now())
	}
	return bad, nil
}

func buildSrvPipeline(seed uint64, sz sizes, dir string) (*system, error) {
	gen := newSrvGen(seed, sz)
	base := liveHeap()
	ts, err := startServer(sz.srvSources, dir)
	if err != nil {
		return nil, fmt.Errorf("srv_pipeline: %w", err)
	}
	sys := &system{shards: ts.gm.Graph().Shards(), close: ts.stop, extra: map[string]metric{}}
	sys.heapBytes, sys.heapEdges = heapDelta(base), ts.gm.Graph().NumEdges()
	preloaded := ts.gm.Graph().NumEdges()

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		cs := pipeStream(gen, sz) // encoded outside the timed window
		n := len(cs.want)
		rs.lat = make([]float64, 0, n/pipeDepth)
		before := ts.counters()
		root := tr.begin(-1, r, layerBenchmark, "round")
		start := time.Now()
		prev := start
		for lo := 0; lo < n; lo += pipeDepth {
			bad, err := ts.exchange(cs, lo, lo+pipeDepth, tr, root, r)
			rs.failed += bad
			if err != nil {
				// The connection is desynchronised: everything not yet
				// answered counts as failed.
				rs.failed += int64(n - lo)
				break
			}
			now := time.Now()
			rs.lat = append(rs.lat, float64(now.Sub(prev).Nanoseconds())/1e3)
			prev = now
		}
		rs.dur = prev.Sub(start)
		tr.end(root)
		rs.walBytes, rs.walOps = walDelta(before, ts.counters())
		rs.ops = int64(n)
		rs.attempted = int64(n) + 2
		if !gen.undo(ts.gm.Graph(), cs) {
			rs.failed++
		}
		if ts.gm.Graph().NumEdges() != preloaded {
			rs.failed++
		}
		return rs
	}
	return sys, nil
}

// ---- srv_openloop ----

// olLimitUS is the latency limit of the open-loop workload.
const olLimitUS = 1000

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK; a slack of 1 ns lets
// nanosleep wake on time instead of up to 50 µs late.
const prSetTimerSlack = 29

// olMaxBurst bounds how many overdue commands the sender writes at once.
const olMaxBurst = 64

func olStream(g *srvGen, sz sizes) *cmdStream {
	// 50 % g.query, 20 % g.degree, 10 % g.getneighbors, 20 % g.insert.
	return g.stream(sz.olCmds, 20, 50, 20)
}

func hashSrvOpenLoop(seed uint64, sz sizes) uint64 {
	g := newSrvGen(seed, sz)
	cs := olStream(g, sz)
	h := newFNV()
	h.add(cs.hash())
	for _, d := range olSchedule(g.rng, len(cs.want), sz.olRate) {
		h.add(uint64(d))
	}
	return uint64(h)
}

// olSchedule draws n due times with exponential gaps at rate per second.
func olSchedule(rng *hashutil.RNG, n, rate int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += -math.Log(1-rng.Float64()) / float64(rate)
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// olResult is one open-loop run of a command stream.
type olResult struct {
	lat        []float64 // µs from due time to reply, per command
	late       []float64 // µs the sender wrote each command after it was due
	dur        time.Duration
	backlogMax int64
	bad        int64
	err        error
}

// openLoop sends cs on schedule whether or not earlier replies have
// arrived, and times every command from the moment it was due, so a
// stall is charged to each command that had to wait behind it. How late
// the sender itself ran is reported beside the latencies.
//
// The sender sleeps until each due time on a thread of its own with the
// kernel's timer slack turned off. It does not spin: on a two-processor
// box a thread that never sleeps makes the scheduler queue the server
// thread it has just woken behind it for a whole time slice, and the
// milliseconds that adds are the box's, not the server's.
func (ts *testServer) openLoop(cs *cmdStream, due []time.Duration, tr *tracer, parent int32, round int) olResult {
	n := len(cs.want)
	res := olResult{lat: make([]float64, n), late: make([]float64, n)}
	var sent, received atomic.Int64
	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		// The thread dies with this goroutine, and the slack setting with it.
		runtime.LockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		var backlogMax int64
		for i := 0; i < n; {
			now := time.Since(start)
			if wait := due[i] - now; wait > 0 {
				t := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&t, nil)
				continue
			}
			j := i + 1
			for j < n && j-i < olMaxBurst && due[j] <= now {
				j++
			}
			if _, err := ts.conn.Write(cs.enc[cs.off[i]:cs.off[j]]); err != nil {
				sendErr <- err
				return
			}
			for k := i; k < j; k++ {
				res.late[k] = float64((now - due[k]).Nanoseconds()) / 1e3
			}
			i = j
			sent.Store(int64(i))
			backlogMax = max(backlogMax, int64(i)-received.Load())
		}
		res.backlogMax = backlogMax
		sendErr <- nil
	}()
	for i := 0; i < n; i++ {
		ok, err := ts.readReply(cs.want[i])
		if err != nil {
			res.err = err
			break
		}
		done := time.Since(start)
		received.Store(int64(i + 1))
		res.lat[i] = float64((done - due[i]).Nanoseconds()) / 1e3
		if !ok {
			res.bad++
		}
		if tr != nil && i%64 == 0 {
			tr.add(parent, round, layerRedislike, "command(due→reply)", start.Add(due[i]), start.Add(done))
		}
	}
	res.dur = time.Since(start)
	if res.err != nil {
		// Unblock a sender stuck in Write, then wait for it.
		ts.conn.Close()
	}
	if err := <-sendErr; err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// cpuSeconds is the processor time this process has used so far, user
// and system, client and server alike.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// olDiag are the open-loop diagnostics of the last round, for the
// per-layer benchmark.* metrics.
type olDiag struct {
	lateP99, backlogMax, overLimit, p999 float64
}

func summariseOpenLoop(res olResult) olDiag {
	lat := sortedCopy(res.lat)
	late := sortedCopy(res.late)
	over := 0
	for _, l := range lat {
		if l > olLimitUS {
			over++
		}
	}
	d := olDiag{lateP99: percentile(late, 99), backlogMax: float64(res.backlogMax), overLimit: float64(over) / float64(len(lat))}
	if supports(len(lat), 99.9) {
		d.p999 = percentile(lat, 99.9)
	}
	return d
}

func buildSrvOpenLoop(seed uint64, sz sizes, dir string) (*system, error) {
	gen := newSrvGen(seed, sz)
	base := liveHeap()
	ts, err := startServer(sz.srvSources, dir)
	if err != nil {
		return nil, fmt.Errorf("srv_openloop: %w", err)
	}
	sys := &system{shards: ts.gm.Graph().Shards(), close: ts.stop, extra: map[string]metric{}}
	sys.heapBytes, sys.heapEdges = heapDelta(base), ts.gm.Graph().NumEdges()
	preloaded := ts.gm.Graph().NumEdges()

	sys.round = func(r int, tr *tracer) roundStats {
		var rs roundStats
		cs := olStream(gen, sz)
		due := olSchedule(gen.rng, len(cs.want), sz.olRate)
		root := tr.begin(-1, r, layerBenchmark, "round")
		cpu0 := cpuSeconds()
		res := ts.openLoop(cs, due, tr, root, r)
		cpu := cpuSeconds() - cpu0
		tr.end(root)
		n := len(cs.want)
		rs.ops, rs.dur, rs.lat = int64(n), res.dur, res.lat
		rs.attempted = int64(n) + 2
		rs.failed = res.bad
		if res.err != nil {
			rs.failed = int64(n)
			return rs
		}
		d := summariseOpenLoop(res)
		sys.extra["benchmark.late_p99_us"] = metric{d.lateP99, "us"}
		sys.extra["benchmark.backlog_max"] = metric{d.backlogMax, "count"}
		sys.extra["benchmark.over_limit_frac"] = metric{d.overLimit, "frac"}
		// How busy the offered rate keeps the box: processor time of the
		// whole process, sender and reader included, over what its
		// processors had to give.
		sys.extra["benchmark.cpu_share"] = metric{cpu / (res.dur.Seconds() * float64(runtime.GOMAXPROCS(0))), "frac"}
		if !gen.undo(ts.gm.Graph(), cs) {
			rs.failed++
		}
		if ts.gm.Graph().NumEdges() != preloaded {
			rs.failed++
		}
		return rs
	}
	return sys, nil
}

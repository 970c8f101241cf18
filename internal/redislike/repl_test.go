package redislike

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// End-to-end replication: a leader with a WAL and a follower pulling it
// over loopback TCP. The suite covers bootstrap (snapshot install),
// steady-state tail streaming, resume after a killed link, bootstrap
// from a compacted leader, write rejection on the follower, the
// introspection surface, and the retention contract (compaction never
// outruns a connected follower's acked position).

// startLeader boots a WAL-backed graph server on loopback.
func startLeader(t *testing.T) (*Server, *GraphModule, string, string) {
	t.Helper()
	dir := t.TempDir()
	s, gm, addr := startWALServer(t, Config{}, dir, wal.Options{Sync: wal.SyncNone})
	t.Cleanup(func() { gm.CloseWAL() })
	return s, gm, addr, dir
}

// startFollower boots a read-only replica server pulling from leaderAddr.
func startFollower(t *testing.T, leaderAddr string) (*Server, *GraphModule, *Replica, string) {
	t.Helper()
	s, gm, addr := startGraphServer(t, Config{})
	r := StartReplica(gm, leaderAddr)
	t.Cleanup(r.Stop)
	return s, gm, r, addr
}

type replEdge struct{ u, v uint64 }

// graphEdges scans the full adjacency into a comparable set.
func graphEdges(g *sharded.Graph) map[replEdge]bool {
	m := make(map[replEdge]bool)
	g.ForEachNode(func(u uint64) bool {
		g.ForEachSuccessor(u, func(v uint64) bool {
			m[replEdge{u, v}] = true
			return true
		})
		return true
	})
	return m
}

// waitConverged polls until the follower graph is bit-identical to the
// leader graph: equal counters and an equal differential edge scan.
// Leader writes must have stopped before calling.
func waitConverged(t *testing.T, lead, foll *GraphModule, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lg, fg := lead.Graph(), foll.Graph()
		if lg.NumEdges() == fg.NumEdges() && lg.NumNodes() == fg.NumNodes() {
			if want, got := graphEdges(lg), graphEdges(fg); reflect.DeepEqual(want, got) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: leader %d edges / %d nodes, follower %d / %d",
				lg.NumEdges(), lg.NumNodes(), fg.NumEdges(), fg.NumNodes())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationCatchUp: every write acked by the leader is visible on
// the follower after catch-up — across bootstrap, live tail streaming,
// deletes, and batch inserts.
func TestReplicationCatchUp(t *testing.T) {
	sL, gmL, addrL, _ := startLeader(t)

	g := gmL.Graph()
	for i := uint64(0); i < 2000; i++ {
		g.InsertEdge(i%97, i)
	}

	_, gmF, r, _ := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("bootstrap snapshots = %d, want 1", got)
	}

	// Live tail: more writes after catch-up, including deletes and a
	// batched insert through the command surface.
	for i := uint64(2000); i < 2600; i++ {
		g.InsertEdge(i%97, i)
	}
	for i := uint64(0); i < 300; i++ {
		g.DeleteEdge(i%97, i)
	}
	if got := dispatch(sL, "g.minsert", "100001", "100002", "100001", "100003"); got.Type == '-' {
		t.Fatalf("g.minsert = %+v", got)
	}
	waitConverged(t, gmL, gmF, 10*time.Second)
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("tail streaming reinstalled a snapshot: %d, want 1", got)
	}
	if r.ops.Load() == 0 || r.frames.Load() == 0 {
		t.Fatalf("tail streaming counters empty: ops=%d frames=%d", r.ops.Load(), r.frames.Load())
	}
}

// TestReplicationBootstrapFromCompacted: a follower connecting after the
// leader has checkpointed (and deleted early segments) bootstraps from a
// snapshot and still converges, including post-checkpoint writes.
func TestReplicationBootstrapFromCompacted(t *testing.T) {
	_, gmL, addrL, _ := startLeader(t)
	g := gmL.Graph()
	for i := uint64(0); i < 800; i++ {
		g.InsertEdge(i%53, i)
	}
	if _, err := gmL.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(800); i < 1100; i++ {
		g.InsertEdge(i%53, i)
	}

	_, gmF, r, _ := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("snapshots installed = %d, want 1", got)
	}
	if !gmF.Graph().HasEdge(1050%53, 1050) {
		t.Fatal("post-checkpoint edge missing on follower")
	}
}

// testProxy is a kill-switch TCP relay between follower and leader, so
// tests can sever the replication link without stopping either side.
type testProxy struct {
	t      *testing.T
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func newProxy(t *testing.T, target string) *testProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &testProxy{t: t, ln: ln, target: target}
	t.Cleanup(func() { ln.Close(); p.killConns() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.handle(c)
		}
	}()
	return p
}

func (p *testProxy) addr() string { return p.ln.Addr().String() }

func (p *testProxy) handle(c net.Conn) {
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	p.conns = append(p.conns, c, up)
	p.mu.Unlock()
	go func() { io.Copy(up, c); up.Close(); c.Close() }()
	go func() { io.Copy(c, up); c.Close(); up.Close() }()
}

// killConns severs every active relayed connection; the listener stays
// up so the follower can reconnect through the same address.
func (p *testProxy) killConns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestReplicationResume: killing the link mid-stream forces a
// reconnect, and the follower resumes from its acked position — no
// second bootstrap snapshot — and converges on writes it missed.
func TestReplicationResume(t *testing.T) {
	_, gmL, addrL, _ := startLeader(t)
	g := gmL.Graph()
	for i := uint64(0); i < 600; i++ {
		g.InsertEdge(i%41, i)
	}

	proxy := newProxy(t, addrL)
	_, gmF, r, _ := startFollower(t, proxy.addr())
	waitConverged(t, gmL, gmF, 10*time.Second)
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("bootstrap snapshots = %d, want 1", got)
	}

	proxy.killConns()
	for i := uint64(600); i < 1200; i++ {
		g.InsertEdge(i%41, i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.reconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never noticed the severed link")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitConverged(t, gmL, gmF, 10*time.Second)
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("resume installed a snapshot: %d, want 1 (log should have been servable)", got)
	}
}

// TestFollowerRejectsWrites: the follower answers writes with a typed
// -READONLY error while reads keep working, and the pipeline stays in
// sync across the rejection.
func TestFollowerRejectsWrites(t *testing.T) {
	_, gmL, addrL, _ := startLeader(t)
	gmL.Graph().InsertEdge(7, 8)
	sF, gmF, _, addrF := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)

	p := dialPipe(t, addrF)
	p.push("g.insert", "1", "2")  // write: rejected
	p.push("g.query", "7", "8")   // read: served
	p.push("g.del", "7", "8")     // write: rejected
	p.push("g.replack", "0", "0") // stream-only command on a plain conn
	p.push("g.getneighbors", "7") // read: still in sync
	p.flush()

	expectError(t, p, "READONLY cannot execute 'g.insert' against a read-only replica; send writes to the leader", "write on replica")
	if got := p.read(); got.Int != 1 {
		t.Fatalf("read on replica = %+v", got)
	}
	expectError(t, p, "READONLY cannot execute 'g.del' against a read-only replica; send writes to the leader", "delete on replica")
	if got := p.read(); got.Type != '-' {
		t.Fatalf("g.replack on plain connection = %+v, want error", got)
	}
	if got := p.read(); len(got.Array) != 1 {
		t.Fatalf("neighbors after rejections = %+v", got)
	}

	// The write never happened.
	if gmF.Graph().HasEdge(1, 2) {
		t.Fatal("rejected write mutated the replica")
	}

	// g.replicate needs a WAL; the follower has none.
	if got := dispatch(sF, "g.replicate", "0", "0"); got.Type != '-' {
		t.Fatalf("g.replicate without wal = %+v, want error", got)
	}
}

// TestReplicationInfoAndMetrics: both roles expose their replication
// state through G.INFO and /metrics.
func TestReplicationInfoAndMetrics(t *testing.T) {
	sL, gmL, addrL, _ := startLeader(t)
	gmL.Graph().InsertEdge(1, 2)
	sF, gmF, _, _ := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)

	// The link registers on the leader as part of stream setup; poll
	// briefly in case convergence won the race with addLink.
	deadline := time.Now().Add(5 * time.Second)
	for len(gmL.replLinks()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never registered the follower link")
		}
		time.Sleep(5 * time.Millisecond)
	}

	linfo := dispatch(sL, "g.info", "replication").Str
	for _, want := range []string{"role:leader", "connected_replicas:1", "retention_floor_segment:"} {
		if !strings.Contains(linfo, want) {
			t.Fatalf("leader G.INFO replication missing %q:\n%s", want, linfo)
		}
	}
	finfo := dispatch(sF, "g.info", "replication").Str
	for _, want := range []string{"role:replica", "leader:" + addrL, "read_only:1", "applied_segment:"} {
		if !strings.Contains(finfo, want) {
			t.Fatalf("follower G.INFO replication missing %q:\n%s", want, finfo)
		}
	}

	var lm, fm bytes.Buffer
	if err := sL.WriteMetrics(&lm); err != nil {
		t.Fatal(err)
	}
	if err := sF.WriteMetrics(&fm); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cg_repl_role 0", "cg_repl_connected_replicas 1", "cg_repl_sent_bytes"} {
		if !strings.Contains(lm.String(), want) {
			t.Fatalf("leader metrics missing %q", want)
		}
	}
	for _, want := range []string{"cg_repl_role 1", "cg_repl_replica_snapshots_total 1", "cg_repl_replica_streaming"} {
		if !strings.Contains(fm.String(), want) {
			t.Fatalf("follower metrics missing %q", want)
		}
	}
}

// TestCompactionHonorsReplicaAck is the retention contract end to end:
// checkpoints hammering the log while a follower streams never delete a
// segment the follower still needs — the stream survives every
// compaction without a re-bootstrap, and old segments are reclaimed
// once acked.
func TestCompactionHonorsReplicaAck(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	_, gmL, addrL, dir := startLeader(t)
	g := gmL.Graph()
	for i := uint64(0); i < 300; i++ {
		g.InsertEdge(i%31, i)
	}
	_, gmF, r, _ := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)

	next := uint64(300)
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 200; i++ {
			g.InsertEdge(next%31, next)
			next++
		}
		if _, err := gmL.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitConverged(t, gmL, gmF, 15*time.Second)

	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("compaction forced a re-bootstrap: snapshots = %d, want 1", got)
	}
	if got := r.reconnects.Load(); got != 0 {
		t.Fatalf("stream broke %d times during compaction, want 0", got)
	}
	if _, held := gmL.walPtr.Load().RetentionFloor(); !held {
		t.Fatal("no retention pin held with a connected follower")
	}

	// Once the follower has acked the tail, a final checkpoint reclaims
	// everything below it — retention is a floor, not a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := gmL.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) <= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("segments never reclaimed: %d files remain (%v)", len(segs), segs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWALInfoScrapeDuringSwap is the observability pin for the WAL
// swap window: concurrent G.INFO wal scrapes, /metrics scrapes and a
// pipelined TCP client must stay well-formed and in sync while the log
// is repeatedly checkpointed, torn down and reopened (wal_resume) under
// them. Run with -race this doubles as the lock-free walPtr audit.
func TestWALInfoScrapeDuringSwap(t *testing.T) {
	s, gm, addr := startWALServer(t, Config{}, t.TempDir(), wal.Options{Sync: wal.SyncNone})
	t.Cleanup(func() { gm.CloseWAL() })
	gm.Graph().InsertEdge(1, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// In-process scrapers: G.INFO wal via Dispatch and raw /metrics.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := dispatch(s, "g.info", "wal"); got.Type != '$' || !strings.Contains(got.Str, "enabled:") {
					panic("malformed G.INFO wal reply: " + got.Str)
				}
				if err := s.WriteMetrics(io.Discard); err != nil {
					panic(err)
				}
			}
		}()
	}

	// A pipelined TCP client interleaving scrapes with reads: replies
	// must come back one per command, in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := dialPipe(t, addr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.push("g.info", "wal")
			p.push("g.query", "1", "2")
			p.push("g.info", "replication")
			p.flush()
			if got := p.read(); got.Type != '$' {
				panic("pipelined G.INFO wal desynced")
			}
			if got := p.read(); got.Int != 1 {
				panic("pipelined read desynced")
			}
			if got := p.read(); got.Type != '$' || !strings.Contains(got.Str, "role:") {
				panic("pipelined G.INFO replication desynced")
			}
		}
	}()

	// The swap loop: write → checkpoint → degrade → resume, which closes
	// the log and reopens it with a checkpoint of its own. Only a degraded
	// server may resume, so each round marks it degraded first, as a
	// failed commit would.
	for i := 0; i < 30; i++ {
		gm.Graph().InsertEdge(uint64(i)+10, uint64(i)+11)
		if _, err := gm.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.setDegraded("test: forced before resume")
		if err := gm.ResumeWAL(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

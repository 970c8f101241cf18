package redislike

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// The streamed bootstrap: the snapshot goes frozen view → socket →
// sharded.Load with no whole-graph buffer at either end. These tests pin
// what that buys (no size cap, no O(graph) allocation on the leader),
// what it must not cost (a writer never waits on a slow follower), and
// that a follower never installs a graph from a stream that fails any
// check.

// seedDense inserts srcs×fan edges (u in [0,srcs), v in [0,fan)) in
// batches: high-degree nodes keep a multi-million-edge graph small.
func seedDense(g *sharded.Graph, srcs, fan uint64) {
	b := make(core.Batch, 0, fan)
	for u := uint64(0); u < srcs; u++ {
		b = b[:0]
		for v := uint64(0); v < fan; v++ {
			b = b.Insert(u, v)
		}
		g.ApplyBatch(b)
	}
}

// TestReplicationBootstrapPastOldBulkCap: a follower bootstraps from a
// leader holding more edges than fit the 64 MiB RESP bulk the snapshot
// used to travel in (14 + 16·E ≤ 64 MiB ⇔ E ≤ 4 194 303).
func TestReplicationBootstrapPastOldBulkCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and ships a 4.2 M-edge graph")
	}
	const srcs, fan = 2048, 2051 // 4 200 448 edges
	_, gmL, addrL, _ := startLeader(t)
	seedDense(gmL.Graph(), srcs, fan)
	want := gmL.Graph().NumEdges()
	if size := core.BasicSnapshotSize(want); want != srcs*fan || size <= resp.MaxBulkBytes {
		t.Fatalf("leader holds %d edges (%d snapshot bytes), want %d and more than one bulk may carry", want, size, srcs*fan)
	}
	_, gmF, r, _ := startFollower(t, addrL)
	deadline := time.Now().Add(3 * time.Minute)
	for gmF.Graph().NumEdges() != want {
		if r.reconnects.Load() > 2 && r.snapshots.Load() == 0 {
			t.Fatalf("follower cannot bootstrap: %d link losses, no snapshot installed", r.reconnects.Load())
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower has %d edges after 3m, want %d", gmF.Graph().NumEdges(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("snapshots installed = %d, want 1", got)
	}
	for i := uint64(0); i < 1000; i++ {
		u, v := (i*2654435761)%srcs, (i*40503)%fan
		if !gmF.Graph().HasEdge(u, v) {
			t.Fatalf("edge ⟨%d,%d⟩ missing on the follower", u, v)
		}
	}
}

// replicateStub dials a leader, sends g.replicate seg off and returns
// the connection with the snap header frame consumed: the cut segment,
// the announced payload length, and a reader positioned at the payload.
func replicateStub(t *testing.T, addr, seg, off string) (net.Conn, *bufio.Reader, uint64, int64) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	bw := bufio.NewWriter(c)
	if err := resp.Write(bw, resp.Command("g.replicate", seg, off)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	v, err := resp.Read(br)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != '*' || len(v.Array) != 3 || v.Array[0].Str != replKindSnap {
		t.Fatalf("first push = %+v, want [snap, cut, byteLen]", v)
	}
	cut, e1 := strconv.ParseUint(v.Array[1].Str, 10, 64)
	size, e2 := strconv.ParseInt(v.Array[2].Str, 10, 64)
	if e1 != nil || e2 != nil {
		t.Fatalf("snap header %+v does not parse", v)
	}
	return c, br, cut, size
}

// TestReplicateMidFrameGetsSnapshot: a position inside a frame of the
// leader's log names bytes no follower of this leader could have acked,
// so the leader bootstraps it with a snapshot — not an err frame the
// follower would answer by reconnecting from the same position forever.
func TestReplicateMidFrameGetsSnapshot(t *testing.T) {
	_, gm, addr, _ := startLeader(t)
	gm.Graph().ApplyBatch(core.Batch{}.Insert(1, 2).Insert(3, 4))
	if tail := gm.walPtr.Load().TailPosition(); tail.Off <= wal.SegmentDataStart+1 {
		t.Fatalf("leader log tail %+v holds no frame to point inside", tail)
	}
	_, _, cut, size := replicateStub(t, addr, "1", strconv.Itoa(wal.SegmentDataStart+1))
	if cut < 2 || size != core.BasicSnapshotSize(2) {
		t.Fatalf("snap frame: cut %d, %d bytes; want a cut past segment 1 and %d bytes", cut, size, core.BasicSnapshotSize(2))
	}
}

// TestBootstrapDoesNotBufferSnapshot: across a whole bootstrap of a
// 1 M-edge graph to a follower that discards what it receives, the
// process allocates less than a quarter of the snapshot's size — the
// leader streams from the frozen view instead of materialising it
// (buffered, it allocated more than the snapshot's size).
func TestBootstrapDoesNotBufferSnapshot(t *testing.T) {
	const srcs, fan = 512, 2050 // 1 049 600 edges
	_, gm, addr, _ := startLeader(t)
	seedDense(gm.Graph(), srcs, fan)
	want := core.BasicSnapshotSize(gm.Graph().NumEdges())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, br, _, size := replicateStub(t, addr, "0", "0")
	if size != want {
		t.Fatalf("snap frame announces %d bytes, want %d", size, want)
	}
	c.SetReadDeadline(time.Now().Add(time.Minute))
	if n, err := io.CopyN(io.Discard, br, size); err != nil {
		t.Fatalf("snapshot payload ended after %d/%d bytes: %v", n, size, err)
	}
	// What follows the payload is a well-formed push again.
	if v, err := resp.Read(br); err != nil || v.Type != '*' || v.Array[0].Str != replKindPing {
		t.Fatalf("push after the snapshot = %+v, %v; want a ping", v, err)
	}
	runtime.ReadMemStats(&after)
	got := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("bootstrap of a %d-byte snapshot allocated %d bytes", size, got)
	if got >= size/4 {
		t.Fatalf("bootstrap of a %d-byte snapshot allocated %d bytes, want < %d", size, got, size/4)
	}
}

// TestSlowFollowerNeverBlocksWriters: a follower that stops reading in
// the middle of the snapshot holds one view on the leader and nothing
// else — writes keep applying — until WriteTimeout drops the link and
// the view with it.
func TestSlowFollowerNeverBlocksWriters(t *testing.T) {
	const srcs, fan = 512, 2050 // a 16 MB snapshot: more than loopback buffers absorb
	s, gm, addr := startWALServer(t, Config{WriteTimeout: 500 * time.Millisecond}, t.TempDir(), wal.Options{Sync: wal.SyncNone})
	t.Cleanup(func() { gm.CloseWAL() })
	g := gm.Graph()
	seedDense(g, srcs, fan)
	views := g.LiveViews()

	replicateStub(t, addr, "0", "0") // reads the header frame, then nothing more
	if got := g.LiveViews(); got != views+1 {
		t.Fatalf("LiveViews = %d during the transfer, want %d", got, views+1)
	}
	start := time.Now()
	for i := uint64(0); i < 20000; i++ {
		if !g.InsertEdge(i%srcs, fan+i) {
			t.Fatalf("insert %d not applied beside a stalled bootstrap", i)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("20000 inserts beside a stalled bootstrap took %v", d)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(gm.replLinks()) != 0 || g.LiveViews() != views {
		if time.Now().After(deadline) {
			t.Fatalf("stalled follower still linked after WriteTimeout: %d links, %d live views (want 0, %d)",
				len(gm.replLinks()), g.LiveViews(), views)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := dispatch(s, "g.query", "0", strconv.Itoa(fan)); got.Int != 1 {
		t.Fatalf("write made during the stall is gone: %+v", got)
	}
}

// scriptedLeader is a fake leader: the i-th connection it accepts gets
// the g.replicate request decoded and handed, with the raw connection,
// to script i; it closes the connection when the script returns.
type scriptedLeader struct {
	ln      net.Listener
	wg      sync.WaitGroup
	scripts []func(c net.Conn, seg, off uint64)
}

func startScriptedLeader(t *testing.T, scripts ...func(c net.Conn, seg, off uint64)) *scriptedLeader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &scriptedLeader{ln: ln, scripts: scripts}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for _, script := range l.scripts {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			v, err := resp.Read(bufio.NewReader(c))
			if err == nil && len(v.Array) == 3 {
				seg, _ := strconv.ParseUint(v.Array[1].Str, 10, 64)
				off, _ := strconv.ParseUint(v.Array[2].Str, 10, 64)
				script(c, seg, off)
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { ln.Close(); l.wg.Wait() })
	return l
}

// snapFrame is a snap push: header frame announcing size bytes, then
// payload as given (which the adversarial scripts make disagree).
func snapFrame(cut uint64, size int64, payload []byte) []byte {
	var w resp.Writer
	w.AppendArrayHeader(3)
	w.AppendBulkString(replKindSnap)
	w.AppendBulkUint(cut)
	w.AppendBulkUint(uint64(size))
	return append(w.Bytes(), payload...)
}

// TestFollowerRejectsBadSnapshots: against leaders whose snapshot push
// is cut short, mis-announced or corrupt, the follower keeps the graph
// it has, counts no installed snapshot, and redials from the position
// it had reached.
func TestFollowerRejectsBadSnapshots(t *testing.T) {
	const cut = 5
	small := sharded.New(sharded.Config{})
	small.InsertEdge(1, 2)
	small.InsertEdge(1, 3)
	var good bytes.Buffer
	if err := small.Save(&good); err != nil {
		t.Fatal(err)
	}
	big := sharded.New(sharded.Config{})
	seedDense(big, 10, 10)
	var other bytes.Buffer
	if err := big.Save(&other); err != nil {
		t.Fatal(err)
	}
	bad, size := other.Bytes(), int64(other.Len())
	corrupt := append([]byte("XXXX"), bad[4:]...)
	ping := resp.Command(replKindPing, "5", "16")
	var pingBytes bytes.Buffer
	bw := bufio.NewWriter(&pingBytes)
	resp.Write(bw, ping)
	bw.Flush()

	var mu sync.Mutex
	var requests [][2]uint64
	record := func(seg, off uint64) {
		mu.Lock()
		requests = append(requests, [2]uint64{seg, off})
		mu.Unlock()
	}
	attack := func(frame []byte) func(net.Conn, uint64, uint64) {
		return func(c net.Conn, seg, off uint64) {
			record(seg, off)
			c.Write(frame)
		}
	}
	installed := make(chan struct{})
	finished := make(chan struct{})
	l := startScriptedLeader(t,
		// A sound bootstrap first, so there is a graph and a position to keep.
		func(c net.Conn, seg, off uint64) {
			record(seg, off)
			c.Write(snapFrame(cut, int64(good.Len()), good.Bytes()))
			<-installed
		},
		attack(snapFrame(cut+1, size, bad[:len(bad)/2])),                                              // connection cut mid-snapshot
		attack(snapFrame(cut+1, size+16, append(bad[:len(bad):len(bad)], make([]byte, 16)...))),       // byteLen ≠ 14 + 16·(header's edges)
		attack(snapFrame(cut+1, size, corrupt)),                                                       // corrupt snapshot header
		attack(snapFrame(cut+1, size, append(bad[:len(bad)-160:len(bad)-160], pingBytes.Bytes()...))), // byteLen larger than the payload sent
		func(c net.Conn, seg, off uint64) {
			record(seg, off)
			close(finished)
		},
	)

	_, gm, _ := startGraphServer(t, Config{})
	r := StartReplica(gm, l.ln.Addr().String())
	t.Cleanup(r.Stop)
	deadline := time.Now().Add(10 * time.Second)
	for r.snapshots.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never installed the sound bootstrap")
		}
		time.Sleep(time.Millisecond)
	}
	close(installed)
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		mu.Lock()
		t.Fatalf("follower stopped redialling after %d connections", len(requests))
	}

	mu.Lock()
	defer mu.Unlock()
	if requests[0] != [2]uint64{0, 0} {
		t.Fatalf("first request = %v, want a bootstrap from 0 0", requests[0])
	}
	for i, req := range requests[1:] {
		if req != [2]uint64{cut, uint64(wal.SegmentDataStart)} {
			t.Fatalf("request %d = %v, want the position the sound bootstrap left: %d/%d", i+1, req, cut, wal.SegmentDataStart)
		}
	}
	if got := r.snapshots.Load(); got != 1 {
		t.Fatalf("snapshots installed = %d, want the sound one alone", got)
	}
	g := gm.Graph()
	if g.NumEdges() != 2 || !g.HasEdge(1, 2) || !g.HasEdge(1, 3) {
		t.Fatalf("follower graph changed under bad snapshots: %d edges %v", g.NumEdges(), graphEdges(g))
	}
}

// TestReplicationSectionsMatchMetrics: on a linked leader and on its
// follower, every numeric key of G.INFO replication is a /metrics
// series of the same value — replica lag (leader_* against applied_*)
// included.
func TestReplicationSectionsMatchMetrics(t *testing.T) {
	sL, gmL, addrL, _ := startLeader(t)
	gmL.Graph().InsertEdge(1, 2)
	sF, gmF, r, _ := startFollower(t, addrL)
	waitConverged(t, gmL, gmF, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for len(gmL.replLinks()) == 0 || r.leaderSeg.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link never registered, or no ping carried the leader tail")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := checkInfoSeries(t, sL, "replication", "cg_repl_", nil); n < 4 {
		t.Fatalf("leader G.INFO replication has %d numeric keys, want at least 4", n)
	}
	// The series names dashboards already read are pinned here.
	legacy := map[string]string{
		"applied_segment": "segment", "applied_offset": "offset",
		"bytes_received": "bytes", "frames_applied": "frames",
		"ops_applied": "ops", "snapshots_installed": "snapshots",
	}
	if n := checkInfoSeries(t, sF, "replication", "cg_repl_replica_", legacy); n < 11 {
		t.Fatalf("follower G.INFO replication has %d numeric keys, want at least 11", n)
	}
	finfo := dispatch(sF, "g.info", "replication").Str
	want := fmt.Sprintf("leader_segment:%d\n", gmL.walPtr.Load().TailPosition().Seg)
	if !bytes.Contains([]byte(finfo), []byte(want)) {
		t.Fatalf("follower G.INFO replication lacks %q:\n%s", want, finfo)
	}
}

package redislike

// Follower-side replication: the client of the leader's g.replicate
// stream. A Replica dials the leader, requests the log from its last
// applied position (0 0 on a fresh process — there is no local
// persistence; the leader answers with a bootstrap snapshot), applies
// pushed frames through the sharded engine, acknowledges each applied
// position, and reconnects with exponential backoff on any drop,
// resuming from where it left off. The owning server runs in
// -READONLY mode: the stream is the only writer.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// Replica states, exported through G.INFO replication and metrics.
const (
	replicaConnecting int32 = iota
	replicaSyncing
	replicaStreaming
	replicaDisconnected
)

func replicaStateName(s int32) string {
	switch s {
	case replicaConnecting:
		return "connecting"
	case replicaSyncing:
		return "syncing"
	case replicaStreaming:
		return "streaming"
	}
	return "disconnected"
}

const (
	replicaDialTimeout    = 5 * time.Second
	replicaBackoffInitial = 100 * time.Millisecond
	replicaBackoffMax     = 3 * time.Second
)

// Replica is this server's replication link to a leader.
type Replica struct {
	gm     *GraphModule
	leader string
	log    *slog.Logger

	cancel context.CancelFunc
	done   chan struct{}

	state      atomic.Int32
	posSeg     atomic.Uint64 // next position to request/apply
	posOff     atomic.Uint64
	leaderSeg  atomic.Uint64 // leader tail from the last ping
	leaderOff  atomic.Uint64
	bytes      atomic.Uint64 // frame+snapshot payload bytes applied
	frames     atomic.Uint64 // frame chunks applied
	ops        atomic.Uint64 // ops applied
	snapshots  atomic.Uint64 // bootstrap snapshots installed
	reconnects atomic.Uint64 // link losses

	// bootstrapped latches true once the replica has reached streaming
	// state at least once — the readiness gate: before it, the graph may
	// still be empty or mid-install, and /readyz holds traffic off.
	bootstrapped atomic.Bool
}

// StartReplica puts the server gm is loaded into in replica mode and
// starts pulling from leader ("host:port"). The returned Replica runs
// until Stop (or module Close); the server rejects client writes with
// -READONLY for its lifetime.
func StartReplica(gm *GraphModule, leader string) *Replica {
	r := &Replica{
		gm:     gm,
		leader: leader,
		log:    gm.srv.log.With("component", "replica", "leader", leader),
		done:   make(chan struct{}),
	}
	r.state.Store(replicaConnecting)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	gm.replica.Store(r)
	go r.run(ctx)
	return r
}

// Stop ends the replication loop and waits for it to exit. Idempotent.
func (r *Replica) Stop() {
	r.cancel()
	<-r.done
}

// Leader returns the configured leader address.
func (r *Replica) Leader() string { return r.leader }

// Bootstrapped reports whether the replica has reached streaming state
// at least once (sticky): the signal /readyz waits on before routing
// reads to this node.
func (r *Replica) Bootstrapped() bool { return r.bootstrapped.Load() }

// markStreaming records a live, caught-up-or-catching-up link.
func (r *Replica) markStreaming() {
	r.state.Store(replicaStreaming)
	r.bootstrapped.Store(true)
}

// jitterBackoff spreads a reconnect delay across [d/2, 3d/2) so the
// followers of a restarted leader do not redial in lockstep — the
// fixed exponential ladder alone synchronises every replica that lost
// the link at the same instant.
func jitterBackoff(d time.Duration) time.Duration {
	return d/2 + rand.N(d)
}

// run is the reconnect loop: stream until the link breaks, back off,
// try again from the last applied position.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	defer r.state.Store(replicaDisconnected)
	backoff := replicaBackoffInitial
	for {
		if ctx.Err() != nil {
			return
		}
		progressed, err := r.stream(ctx)
		if ctx.Err() != nil {
			return
		}
		r.state.Store(replicaDisconnected)
		r.reconnects.Add(1)
		if progressed {
			backoff = replicaBackoffInitial
		}
		r.log.Warn("replication link lost; reconnecting",
			"err", err, "backoff", backoff,
			"segment", r.posSeg.Load(), "offset", r.posOff.Load())
		select {
		case <-ctx.Done():
			return
		case <-time.After(jitterBackoff(backoff)):
		}
		if backoff *= 2; backoff > replicaBackoffMax {
			backoff = replicaBackoffMax
		}
	}
}

// stream runs one connection's lifetime: dial, request, apply pushes
// until an error. progressed reports whether any push was applied, so
// the reconnect loop resets its backoff only on working links.
func (r *Replica) stream(ctx context.Context) (progressed bool, err error) {
	r.state.Store(replicaConnecting)
	d := net.Dialer{Timeout: replicaDialTimeout}
	nc, err := d.DialContext(ctx, "tcp", r.leader)
	if err != nil {
		return false, err
	}
	defer nc.Close()
	// Kill the connection when the replica stops, so a read parked on
	// an idle link returns instead of outliving Stop.
	unhook := context.AfterFunc(ctx, func() { nc.Close() })
	defer unhook()

	bw := bufio.NewWriter(nc)
	req := resp.Command("g.replicate",
		strconv.FormatUint(r.posSeg.Load(), 10),
		strconv.FormatUint(r.posOff.Load(), 10))
	if err := resp.Write(bw, req); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	r.state.Store(replicaSyncing)

	br := bufio.NewReaderSize(nc, 256<<10)
	var batch core.Batch
	for {
		var applied bool
		if batch, applied, err = r.applyPush(br, batch[:0]); err != nil {
			return progressed, err
		}
		progressed = progressed || applied
		// Acknowledge the applied position. On a ping this re-sends the
		// current position, keeping the leader's lag view (and its
		// retention pin) fresh even on an idle link.
		ack := resp.Command("g.replack",
			strconv.FormatUint(r.posSeg.Load(), 10),
			strconv.FormatUint(r.posOff.Load(), 10))
		if err := resp.Write(bw, ack); err != nil {
			return progressed, err
		}
		if err := bw.Flush(); err != nil {
			return progressed, err
		}
	}
}

// applyPush reads one push from br and applies it, reporting whether it
// changed the graph (a ping only refreshes the leader tail); batch is
// scratch for a chunk's ops, returned for reuse. A snapshot payload is
// not buffered: once its announced length agrees with the edge count in
// its own header it streams through sharded.Load, which must consume
// exactly that length, and only then is the graph installed — so memory
// follows the bytes that arrive, never a length a frame merely claims,
// and a bad frame leaves graph, position and counters as they were.
func (r *Replica) applyPush(br *bufio.Reader, batch core.Batch) (core.Batch, bool, error) {
	v, err := resp.Read(br)
	if err != nil {
		return batch, false, err
	}
	if v.Type == '-' {
		return batch, false, fmt.Errorf("leader rejected stream: %s", v.Str)
	}
	if v.Type != '*' || len(v.Array) == 0 {
		return batch, false, fmt.Errorf("unexpected push frame type %q", v.Type)
	}
	applied := true
	switch kind := v.Array[0].Str; kind {
	case replKindSnap:
		if len(v.Array) != 3 {
			return batch, false, fmt.Errorf("malformed snap frame (%d elements)", len(v.Array))
		}
		cut, e1 := strconv.ParseUint(v.Array[1].Str, 10, 64)
		size, e2 := strconv.ParseUint(v.Array[2].Str, 10, 64)
		if e1 != nil || e2 != nil {
			return batch, false, fmt.Errorf("malformed snap cut or length")
		}
		// A short header fails the decode below.
		hdr, _ := br.Peek(core.SnapshotHeaderSize)
		edges, err := core.BasicSnapshotEdges(bytes.NewReader(hdr))
		if err != nil {
			return batch, false, fmt.Errorf("bootstrap snapshot: %w", err)
		}
		if want := core.BasicSnapshotSize(edges); uint64(want) != size {
			return batch, false, fmt.Errorf("bootstrap snapshot: frame announces %d bytes, its header's %d edges make %d",
				size, edges, want)
		}
		lr := &io.LimitedReader{R: br, N: int64(size)}
		g, err := sharded.Load(lr, sharded.Config{Shards: r.gm.g.Shards()})
		if err != nil {
			return batch, false, fmt.Errorf("bootstrap snapshot: %w", err)
		}
		if lr.N != 0 {
			return batch, false, fmt.Errorf("bootstrap snapshot: %d announced bytes left unread", lr.N)
		}
		// Counted before it shows: whoever sees the new state sees it
		// counted. g has the module graph's shard count, which is all
		// the install can refuse.
		r.bytes.Add(size)
		r.snapshots.Add(1)
		if err := r.gm.installGraph(g); err != nil {
			return batch, false, fmt.Errorf("bootstrap snapshot: %w", err)
		}
		r.posSeg.Store(cut)
		r.posOff.Store(uint64(wal.SegmentDataStart))
		r.log.Info("bootstrap snapshot installed",
			"bytes", size, "edges", r.gm.g.NumEdges(), "cut_segment", cut)
	case replKindFrames:
		if len(v.Array) != 4 {
			return batch, false, fmt.Errorf("malformed frames frame (%d elements)", len(v.Array))
		}
		fseg, e1 := strconv.ParseUint(v.Array[1].Str, 10, 64)
		foff, e2 := strconv.ParseUint(v.Array[2].Str, 10, 64)
		if e1 != nil || e2 != nil {
			return batch, false, fmt.Errorf("malformed frames position")
		}
		// The leader streams contiguously from the requested
		// position; the only legitimate jump is to the data start
		// of a later segment (the reader crossed one or more
		// sealed — possibly record-free — segment boundaries).
		// Anything else would silently skip or replay log bytes.
		expSeg, expOff := r.posSeg.Load(), r.posOff.Load()
		contiguous := fseg == expSeg && foff == expOff
		rolled := fseg > expSeg && foff == uint64(wal.SegmentDataStart)
		if !contiguous && !rolled {
			return batch, false, fmt.Errorf("position break: got %d/%d, expected %d/%d",
				fseg, foff, expSeg, expOff)
		}
		data := v.Array[3].Str
		if batch, err = wal.AppendChunkOps([]byte(data), batch); err != nil {
			return batch, false, fmt.Errorf("chunk rejected: %w", err)
		}
		r.bytes.Add(uint64(len(data)))
		r.frames.Add(1)
		r.ops.Add(uint64(len(batch)))
		r.gm.g.ApplyBatch(batch)
		r.posSeg.Store(fseg)
		r.posOff.Store(foff + uint64(len(data)))
	case replKindPing:
		if len(v.Array) != 3 {
			return batch, false, fmt.Errorf("malformed ping frame (%d elements)", len(v.Array))
		}
		tseg, e1 := strconv.ParseUint(v.Array[1].Str, 10, 64)
		toff, e2 := strconv.ParseUint(v.Array[2].Str, 10, 64)
		if e1 != nil || e2 != nil {
			return batch, false, fmt.Errorf("malformed ping position")
		}
		r.leaderSeg.Store(tseg)
		r.leaderOff.Store(toff)
		applied = false
	case replKindErr:
		// The leader ended the stream deliberately and said why —
		// leader-side log failure or shutdown, not a network drop.
		msg := "unspecified"
		if len(v.Array) >= 2 {
			msg = v.Array[1].Str
		}
		return batch, false, fmt.Errorf("leader ended stream: %s", msg)
	default:
		return batch, false, fmt.Errorf("unknown push kind %q", kind)
	}
	r.markStreaming()
	return batch, applied, nil
}

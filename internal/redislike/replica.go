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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
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
	rc := resp.NewConn(nc)
	defer rc.Close()
	// Kill the connection when the replica stops, so a read parked on
	// an idle link returns instead of outliving Stop.
	unhook := context.AfterFunc(ctx, func() { rc.Close() })
	defer unhook()

	if err := r.sendPos(rc, "g.replicate"); err != nil {
		return false, err
	}
	r.state.Store(replicaSyncing)
	var batch core.Batch
	for {
		var applied bool
		if batch, applied, err = r.applyPush(rc, batch[:0]); err != nil {
			return progressed, err
		}
		progressed = progressed || applied
		// Acknowledge the applied position. On a ping this re-sends the
		// current position, keeping the leader's lag view (and its
		// retention pin) fresh even on an idle link.
		if err := r.sendPos(rc, "g.replack"); err != nil {
			return progressed, err
		}
	}
}

// sendPos sends cmd with the position to apply next: the stream request
// and every ack carry the same two numbers.
func (r *Replica) sendPos(rc *resp.Conn, cmd string) error {
	rc.W.AppendArrayHeader(3)
	rc.W.AppendBulkString(cmd)
	rc.W.AppendBulkUint(r.posSeg.Load())
	rc.W.AppendBulkUint(r.posOff.Load())
	return rc.Flush()
}

// applyPush reads one push from rc and applies it, reporting whether it
// changed the graph (a ping only refreshes the leader tail); batch is
// scratch for a chunk's ops, returned for reuse. A frames chunk is
// decoded where it lies in rc's read buffer. A snapshot payload is not
// buffered: once its announced length agrees with the edge count in its
// own header it streams through sharded.Load, which must consume
// exactly that length, and only then is the graph installed — so memory
// follows the bytes that arrive, never a length a frame merely claims,
// and a bad frame leaves graph, position and counters as they were.
func (r *Replica) applyPush(rc *resp.Conn, batch core.Batch) (core.Batch, bool, error) {
	req, err := rc.ReadRequest()
	if errors.Is(err, resp.ErrProtocol) {
		// A leader refusing g.replicate answers with an error reply, one
		// write that ReadRequest buffered whole and left unread: no push.
		var buf [512]byte
		n, _ := rc.Read(buf[:])
		if line, _, ok := bytes.Cut(buf[:n], crlf); ok && len(line) > 0 && line[0] == '-' {
			return batch, false, fmt.Errorf("leader rejected stream: %s", line[1:])
		}
	}
	if err != nil {
		return batch, false, err
	}
	args := req.Args
	if len(args) == 0 {
		return batch, false, errors.New("empty push frame")
	}
	applied := true
	switch string(args[0]) {
	case replKindSnap:
		cut, size, ok := replPos(args, 3)
		if !ok {
			return batch, false, errors.New("malformed snap frame")
		}
		// The header is read through the payload's limit and replayed
		// ahead of the rest of it; a short one fails the decode.
		lr := &io.LimitedReader{R: rc, N: int64(size)}
		var hdr bytes.Buffer
		edges, err := core.BasicSnapshotEdges(io.TeeReader(lr, &hdr))
		if err != nil {
			return batch, false, fmt.Errorf("bootstrap snapshot: %w", err)
		}
		if want := core.BasicSnapshotSize(edges); uint64(want) != size {
			return batch, false, fmt.Errorf("bootstrap snapshot: frame announces %d bytes, its header's %d edges make %d",
				size, edges, want)
		}
		g, err := sharded.Load(io.MultiReader(&hdr, lr), sharded.Config{Shards: r.gm.g.Shards()})
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
		fseg, foff, ok := replPos(args, 4)
		if !ok {
			return batch, false, errors.New("malformed frames frame")
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
		data := args[3]
		if batch, err = wal.AppendChunkOps(data, batch); err != nil {
			return batch, false, fmt.Errorf("chunk rejected: %w", err)
		}
		r.bytes.Add(uint64(len(data)))
		r.frames.Add(1)
		r.ops.Add(uint64(len(batch)))
		r.gm.g.ApplyBatch(batch)
		r.posSeg.Store(fseg)
		r.posOff.Store(foff + uint64(len(data)))
	case replKindPing:
		tseg, toff, ok := replPos(args, 3)
		if !ok {
			return batch, false, errors.New("malformed ping frame")
		}
		r.leaderSeg.Store(tseg)
		r.leaderOff.Store(toff)
		applied = false
	case replKindErr:
		// The leader ended the stream deliberately and said why —
		// leader-side log failure or shutdown, not a network drop.
		msg := "unspecified"
		if len(args) >= 2 {
			msg = string(args[1])
		}
		return batch, false, fmt.Errorf("leader ended stream: %s", msg)
	default:
		return batch, false, fmt.Errorf("unknown push kind %q", args[0])
	}
	r.markStreaming()
	return batch, applied, nil
}

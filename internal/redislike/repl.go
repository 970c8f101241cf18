package redislike

// Leader-side replication: WAL shipping over the RESP connection.
//
// A follower sends `g.replicate <segment> <offset>` — its resume
// position, or `0 0` to bootstrap — and the handler hijacks the
// connection into a push stream. When the position is servable from
// the retained log the leader streams raw CRC-framed WAL chunks; when
// it is not (zero, compacted away, or diverged) the leader first
// pushes a full snapshot cut against a segment rotation, then streams
// the log from the cut. Push frames, each a RESP array of bulk strings:
//
//	["snap",   <cutSegment>, <byteLen>]        then byteLen raw snapshot bytes; resume at (cut, data start)
//	["frames", <segment>, <offset>, <chunk>]   raw WAL frames at that position
//	["ping",   <tailSegment>, <tailOffset>]    leader tail; keepalive when idle
//	["err",    <message>]                      the leader is ending the stream, and why
//
// Nothing whole-graph is buffered: the snapshot payload is View.Save
// writing to the socket, its length (known from the view's edge count)
// announced ahead of it, and a frames chunk goes out from the
// wal.Reader's own buffer.
//
// The follower acknowledges applied positions by writing
// `g.replack <segment> <offset>` command arrays back on the same
// connection. A dedicated goroutine reads them with the hijacked
// Conn's ReadRequest — the serve loop reads that Conn no more, and the
// stream goroutine only writes it — and advances the link's retention
// Pin, which is what stops checkpoints from deleting any segment at or
// above a connected follower's acked offset.

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/wal"
)

// Push frame kinds.
const (
	replKindSnap   = "snap"
	replKindFrames = "frames"
	replKindPing   = "ping"
	// replKindErr is the terminal frame: the leader is ending the stream
	// deliberately (log failure, snapshot failure, shutdown) and says
	// why, so a follower can distinguish a leader-side failure from a
	// network drop.
	replKindErr = "err"
)

// crlf ends a frames push after its chunk, and a leader's error reply.
var crlf = []byte("\r\n")

const (
	// replPollInterval is how long a caught-up stream sleeps before
	// re-checking the tail.
	replPollInterval = 20 * time.Millisecond
	// replPingEvery is the idle keepalive cadence; each ping also
	// refreshes the follower's view of the leader tail (lag math).
	replPingEvery = time.Second
)

// replLink is one connected follower on the leader. The stream
// goroutine writes sent*, the ack goroutine writes ack*, and G.INFO /
// metrics read everything — hence atomics.
type replLink struct {
	addr  string
	since time.Time
	pin   *wal.Pin

	ackSeg    atomic.Uint64
	ackOff    atomic.Uint64
	sentSeg   atomic.Uint64
	sentOff   atomic.Uint64
	sentBytes atomic.Uint64
	snapshots atomic.Uint64
}

// replack is only meaningful as traffic ON an established replication
// stream, where the stream's ack goroutine consumes it; reaching
// dispatch means it was sent on a plain connection.
func (gm *GraphModule) replack(ctx *Ctx) error {
	return badArg(ctx.Name, "only valid on a replication stream (see g.replicate)")
}

// replicate validates the requested position and hands the connection
// to the streaming goroutine. Errors before the hijack are ordinary
// command errors; after it the connection belongs to the stream and
// terminates with it.
func (gm *GraphModule) replicate(ctx *Ctx) error {
	seg, err := argUint(ctx, 0, "segment")
	if err != nil {
		return err
	}
	off, err := argUint(ctx, 1, "offset")
	if err != nil {
		return err
	}
	w := gm.walPtr.Load()
	if w == nil {
		return badArg(ctx.Name, "replication requires an enabled wal (start the leader with -wal-dir)")
	}
	rc := ctx.Hijack()
	// Replies to commands pipelined ahead of this one leave here, so
	// they are committed here.
	if err := gm.srv.flush(ctx); err != nil {
		return nil
	}
	gm.streamTo(gm.srv, rc, w, wal.Position{Seg: seg, Off: int64(off)})
	return nil
}

// streamTo runs the push stream until the follower drops, the server
// drains, or the log fails under it. It blocks the connection's serve
// goroutine — that goroutine IS the stream.
//
// A bootstrap holds one frozen view for as long as the follower takes
// to read it. View.Save never holds a shard lock across a write to the
// socket, so a slow follower cannot stall a writer; what it keeps alive
// is the view's copy-on-write overlay, which grows with the nodes
// writers change meanwhile — not with the graph — until the transfer
// ends or a write times out.
func (gm *GraphModule) streamTo(srv *Server, rc *resp.Conn, w *wal.WAL, pos wal.Position) {
	nc := rc.NetConn()
	link := &replLink{addr: rc.RemoteAddr(), since: time.Now(), pin: w.Pin(pos.Seg)}
	link.ackSeg.Store(pos.Seg)
	link.ackOff.Store(uint64(pos.Off))
	gm.addLink(link)
	defer gm.removeLink(link)
	gm.log.Info("replica connected", "remote", link.addr, "segment", pos.Seg, "offset", pos.Off)
	defer gm.log.Info("replica disconnected", "remote", link.addr)

	// Ack reader: g.replack frames arrive on the same connection, read
	// here through rc's request parser; Abort and ReadTimeout bound it
	// as they bound a client's command. Any read error or protocol
	// violation ends the stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, err := rc.ReadRequest()
			if err != nil {
				return
			}
			aseg, aoff, ok := replPos(req.Args, 3)
			if !ok || !bytes.EqualFold(req.Args[0], []byte("g.replack")) {
				gm.log.Warn("replication stream: unexpected frame from follower", "remote", link.addr)
				return
			}
			link.ackSeg.Store(aseg)
			link.ackOff.Store(aoff)
			link.pin.Move(aseg)
		}
	}()

	// Every write is armed with the server's WriteTimeout: a follower
	// that stops reading costs the leader one timeout, whether in a ping
	// or mid-snapshot. Frames that are all header go out with rc.Flush;
	// sendFrames writes the frames push pending in rw — which ends in the
	// header of its chunk bulk — then the chunk from the wal.Reader's
	// buffer and the bulk's closing CRLF, as one vectored write whatever
	// the chunk's length.
	rw := &rc.W
	var vecs net.Buffers
	sendFrames := func(chunk []byte) error {
		if rc.WriteTimeout > 0 {
			nc.SetWriteDeadline(time.Now().Add(rc.WriteTimeout))
		}
		vecs = append(vecs[:0], rw.Bytes(), chunk, crlf)
		v := vecs // WriteTo consumes the slice it is called on
		_, err := v.WriteTo(nc)
		rw.Reset()
		return err
	}
	// sendErr pushes the terminal ["err", msg] frame. Best-effort: the
	// stream is over either way, the frame only tells the follower the
	// leader ended it on purpose and why.
	sendErr := func(msg string) {
		rw.Reset()
		rw.AppendArrayHeader(2)
		rw.AppendBulkString(replKindErr)
		rw.AppendBulkString(msg)
		_ = rc.Flush()
	}

	rd, err := w.OpenReader(pos)
	if errors.Is(err, wal.ErrCompacted) {
		// Not servable incrementally: push a full snapshot cut against
		// a rotation, then stream from the cut. The link's pin (which
		// floors retention at the follower's old position, or 0 on
		// bootstrap) is moved up only after the cut exists.
		v, cut, cerr := wal.CutView(gm.g, w)
		if cerr != nil {
			gm.log.Error("replication snapshot failed", "remote", link.addr, "err", cerr)
			sendErr("bootstrap snapshot failed: " + cerr.Error())
			return
		}
		pos = wal.Position{Seg: cut, Off: wal.SegmentDataStart}
		link.pin.Move(cut)
		link.ackSeg.Store(cut)
		link.ackOff.Store(uint64(pos.Off))
		link.snapshots.Add(1)
		size := core.BasicSnapshotSize(v.NumEdges())
		rw.AppendArrayHeader(3)
		rw.AppendBulkString(replKindSnap)
		rw.AppendBulkUint(cut)
		rw.AppendBulkUint(uint64(size))
		err = rc.Flush()
		if err == nil {
			// 64 KB socket writes, not one per 4 KB of 16-byte records.
			err = v.Save(bufio.NewWriterSize(rc, 64<<10))
		}
		v.Release()
		if err != nil {
			// Mid-payload there is no frame boundary to put an err frame
			// on: dropping the connection is the only well-formed end.
			gm.log.Warn("replication snapshot push failed", "remote", link.addr, "err", err)
			return
		}
		link.sentBytes.Add(uint64(size))
		gm.log.Info("replication snapshot pushed", "remote", link.addr, "bytes", size, "cut_segment", cut)
		rd, err = w.OpenReader(pos)
	}
	if err != nil {
		gm.log.Error("replication stream failed to open log", "remote", link.addr, "err", err)
		sendErr("log open failed: " + err.Error())
		return
	}
	defer rd.Close()

	lastPing := time.Time{}
	for {
		if srv.draining() {
			sendErr("leader shutting down")
			return
		}
		select {
		case <-done:
			return
		default:
		}
		chunk, start, err := rd.Next()
		switch {
		case err == nil:
			rw.AppendArrayHeader(4)
			rw.AppendBulkString(replKindFrames)
			rw.AppendBulkUint(start.Seg)
			rw.AppendBulkUint(uint64(start.Off))
			rw.AppendBulkHeader(len(chunk))
			if err := sendFrames(chunk); err != nil {
				return
			}
			end := rd.Pos()
			link.sentSeg.Store(end.Seg)
			link.sentOff.Store(uint64(end.Off))
			link.sentBytes.Add(uint64(len(chunk)))
		case errors.Is(err, wal.ErrNoData):
			if time.Since(lastPing) >= replPingEvery {
				tail := w.TailPosition()
				rw.AppendArrayHeader(3)
				rw.AppendBulkString(replKindPing)
				rw.AppendBulkUint(tail.Seg)
				rw.AppendBulkUint(uint64(tail.Off))
				if err := rc.Flush(); err != nil {
					return
				}
				lastPing = time.Now()
			}
			select {
			case <-done:
				return
			case <-time.After(replPollInterval):
			}
		default:
			// A WAL read failure under the stream: tell the follower the
			// log (not the network) broke, then end cleanly.
			gm.log.Warn("replication stream failed", "remote", link.addr, "err", err)
			sendErr("log read failed: " + err.Error())
			return
		}
	}
}

// replPos decodes args[1] and args[2], the two numbers of an n-element
// push or ack: a log position, or a snapshot's cut and length.
func replPos(args [][]byte, n int) (a, b uint64, ok bool) {
	if len(args) != n {
		return 0, 0, false
	}
	a, ok = parseUint64(args[1])
	b, ok2 := parseUint64(args[2])
	return a, b, ok && ok2
}

func (gm *GraphModule) addLink(l *replLink) {
	gm.replMu.Lock()
	if gm.links == nil {
		gm.links = make(map[*replLink]struct{})
	}
	gm.links[l] = struct{}{}
	gm.replMu.Unlock()
}

func (gm *GraphModule) removeLink(l *replLink) {
	gm.replMu.Lock()
	delete(gm.links, l)
	gm.replMu.Unlock()
	l.pin.Release()
}

// replLinks snapshots the connected follower links, connection order
// unspecified.
func (gm *GraphModule) replLinks() []*replLink {
	gm.replMu.Lock()
	defer gm.replMu.Unlock()
	out := make([]*replLink, 0, len(gm.links))
	for l := range gm.links {
		out = append(out, l)
	}
	return out
}

package redislike

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/wal"
)

// byteConn is a net.Conn whose peer sent src and closed: what a
// follower's Conn reads from a leader, pinned to given bytes. Writes
// are discarded and deadlines ignored.
type byteConn struct {
	net.Conn
	src *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error)       { return c.src.Read(p) }
func (c byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c byteConn) SetWriteDeadline(time.Time) error { return nil }

// pushSeeds returns one valid push of each kind, as the leader writes
// them: a snap frame with its raw payload, a frames push carrying a real
// WAL chunk, a ping and the terminal err.
func pushSeeds(f *testing.F) [][]byte {
	g := sharded.New(sharded.Config{})
	seedDense(g, 4, 8)
	var snap bytes.Buffer
	if err := g.Save(&snap); err != nil {
		f.Fatal(err)
	}

	w, err := wal.Open(f.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	start := w.TailPosition()
	if err := w.LogBatch(core.Batch{}.Insert(1, 2).Delete(1, 2).Insert(3, 4)); err != nil {
		f.Fatal(err)
	}
	rd, err := w.OpenReader(start)
	if err != nil {
		f.Fatal(err)
	}
	defer rd.Close()
	chunk, pos, err := rd.Next()
	if err != nil {
		f.Fatal(err)
	}
	var frames resp.Writer
	frames.AppendArrayHeader(4)
	frames.AppendBulkString(replKindFrames)
	frames.AppendBulkUint(pos.Seg)
	frames.AppendBulkUint(uint64(pos.Off))
	frames.AppendBulk(chunk)

	var ping, errf resp.Writer
	ping.AppendValue(resp.Command(replKindPing, "3", "4096"))
	errf.AppendValue(resp.Command(replKindErr, "leader shutting down"))
	return [][]byte{
		snapFrame(7, int64(snap.Len()), snap.Bytes()),
		bytes.Clone(frames.Bytes()),
		bytes.Clone(ping.Bytes()),
		bytes.Clone(errf.Bytes()),
	}
}

// FuzzReplicaPush throws arbitrary bytes at the follower's push handler
// — what a follower does with whatever its leader address sends it.
// Properties: applyPush never panics; it installs a graph only from a
// snap push whose every check passed (announced length = the length its
// own header implies, and that many payload bytes present), and a
// refused push leaves graph, position and counters untouched; and it
// allocates in proportion to the bytes it was given, never to a length
// a frame merely claims.
func FuzzReplicaPush(f *testing.F) {
	for _, s := range pushSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("*3\r\n$4\r\nsnap\r\n$1\r\n7\r\n$19\r\n1099511627776000014\r\n")) // a length that is only claimed
	f.Add([]byte("*4\r\n$6\r\nframes\r\n$1\r\n1\r\n$2\r\n16\r\n$67108864\r\nxx"))
	// Pushes whose element count is not their kind's (no element past the
	// last one sent may be read), an empty one, and an error reply.
	f.Add([]byte("*1\r\n$6\r\nframes\r\n"))
	f.Add([]byte("*2\r\n$4\r\nsnap\r\n$1\r\n7\r\n"))
	f.Add([]byte("*4\r\n$4\r\nping\r\n$1\r\n3\r\n$4\r\n4096\r\n$0\r\n\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("-ERR g.replicate: replication requires an enabled wal\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gm, _ := NewGraphModule()
		r := &Replica{gm: gm, log: gm.log}
		r.posSeg.Store(1) // where pushSeeds' chunk starts
		r.posOff.Store(uint64(wal.SegmentDataStart))
		g := gm.Graph()
		m0 := g.Mutations()

		src := bytes.NewReader(data)
		rc := resp.NewConn(byteConn{src: src})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, applied, err := r.applyPush(rc, nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); got > limit {
			t.Fatalf("handling %d bytes allocated %d, want <= %d", len(data), got, limit)
		}
		if err != nil || !applied {
			if g.Mutations() != m0 || g.NumEdges() != 0 || r.snapshots.Load()+r.frames.Load() != 0 ||
				r.posSeg.Load() != 1 || r.posOff.Load() != uint64(wal.SegmentDataStart) {
				t.Fatalf("push refused (%v) or a ping, yet state moved: mutations=%d edges=%d pos=%d/%d",
					err, g.Mutations()-m0, g.NumEdges(), r.posSeg.Load(), r.posOff.Load())
			}
			return
		}
		// A restore moves Mutations, even that of an empty snapshot.
		installed := r.snapshots.Load() == 1
		if installed == (r.frames.Load() == 1) || installed && g.Mutations() == m0 {
			t.Fatalf("applied push: snapshots=%d frames=%d mutations=%d",
				r.snapshots.Load(), r.frames.Load(), g.Mutations()-m0)
		}
		if !installed {
			return
		}
		// The payload is the last r.bytes bytes consumed: they must exist,
		// parse as a snapshot of exactly that length, and hold every edge
		// of the graph installed.
		size, end := r.bytes.Load(), len(data)-src.Len()-rc.Buffered()
		if size > uint64(end) {
			t.Fatalf("snap push accepted with %d announced bytes, %d consumed in all", size, end)
		}
		payload := data[end-int(size) : end]
		edges, herr := core.BasicSnapshotEdges(bytes.NewReader(payload))
		if herr != nil || core.BasicSnapshotSize(edges) != int64(len(payload)) {
			t.Fatalf("snap push accepted with a %d-byte payload whose header says %d edges (%v)", len(payload), edges, herr)
		}
		if err := core.ReadBasicSnapshot(bytes.NewReader(payload), func(u, v uint64) error {
			if !g.HasEdge(u, v) {
				t.Fatalf("installed graph lacks edge ⟨%d,%d⟩ of its snapshot", u, v)
			}
			return nil
		}); err != nil {
			t.Fatalf("accepted payload does not re-read: %v", err)
		}
	})
}

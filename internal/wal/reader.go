// Log shipping: reading an open WAL while it is being written.
//
// A Reader streams whole CRC-validated frame chunks from a Position up
// to the durable tail — the leader side of replication ships those raw
// bytes to followers, which decode them with AppendChunkOps and apply
// the ops through the sharded engine. A Pin is the retention contract
// that makes this safe against checkpoints: RemoveSegmentsBefore never
// deletes a segment at or above the lowest pinned index, so a reader
// whose position is pinned can never have its segment unlinked out
// from under it.

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"cuckoograph/internal/core"
	"cuckoograph/internal/vfs"
)

// Position addresses one byte of the log: a segment index and a byte
// offset within that segment's file. The zero Position means "nothing
// held" — segment indexes start at 1.
type Position struct {
	Seg uint64
	Off int64
}

// IsZero reports whether p is the zero position.
func (p Position) IsZero() bool { return p.Seg == 0 }

// Less orders positions by (segment, offset).
func (p Position) Less(q Position) bool {
	return p.Seg < q.Seg || (p.Seg == q.Seg && p.Off < q.Off)
}

// SegmentDataStart is the offset of the first record in any segment
// file — the byte after the fixed header. A position at a fresh
// checkpoint cut is {cut, SegmentDataStart}.
const SegmentDataStart = segHeaderSize

// ErrNoData reports a reader caught up with the durable tail: nothing
// to return now, more may arrive later.
var ErrNoData = errors.New("wal: no data")

// ErrCompacted reports a position below the retained log prefix (its
// segment has been checkpointed away) or otherwise unservable; a
// shipper receiving it must fall back to a full snapshot.
var ErrCompacted = errors.New("wal: position compacted")

// Pin holds a log-retention floor. While held, RemoveSegmentsBefore
// will not delete any segment with index >= the pin's segment, no
// matter what cut a checkpoint requests. Replication pins each
// connected follower at its acknowledged segment and advances the pin
// as acks arrive.
type Pin struct {
	w   *WAL
	seg uint64 // guarded by w.mu
}

// Pin registers a retention floor at seg and returns the handle.
// Pinning segment 0 retains the entire log.
func (w *WAL) Pin(seg uint64) *Pin {
	p := &Pin{w: w, seg: seg}
	w.mu.Lock()
	if w.pins == nil {
		w.pins = make(map[*Pin]struct{})
	}
	w.pins[p] = struct{}{}
	w.mu.Unlock()
	return p
}

// Move advances the pin's floor to seg. A floor never moves backwards:
// a stale ack cannot re-extend retention.
func (p *Pin) Move(seg uint64) {
	p.w.mu.Lock()
	if seg > p.seg {
		p.seg = seg
	}
	p.w.mu.Unlock()
}

// Release removes the pin; retention reverts to the checkpoint cut.
// Releasing twice is harmless.
func (p *Pin) Release() {
	p.w.mu.Lock()
	delete(p.w.pins, p)
	p.w.mu.Unlock()
}

// RetentionFloor reports the lowest pinned segment and whether any pin
// is held.
func (w *WAL) RetentionFloor() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	floor, held := uint64(0), false
	for p := range w.pins {
		if !held || p.seg < floor {
			floor, held = p.seg, true
		}
	}
	return floor, held
}

// TailPosition returns the durable tail: the position one past the
// last byte a group commit has written. It waits out an in-flight
// commit, so the bytes below the returned position are fully on the
// file (no frame ever straddles the tail — a group commit advances the
// size only after its whole write lands).
func (w *WAL) TailPosition() Position {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	return Position{Seg: w.seg, Off: w.size}
}

// readerChunkBytes is how much a segment cursor reads at a time; a
// single frame larger than this is read whole.
const readerChunkBytes = 256 << 10

// segCursor is the package's one segment reader. It yields the
// CRC-valid frame bodies of one segment file in order, from off up to
// limit, reading a chunk at a time — or one whole frame, when that is
// larger. scanSegment runs it to end-of-file, the shipping Reader to
// the durable tail.
type segCursor struct {
	f      vfs.File
	name   string // the file's base name, for errors
	off    int64  // the next frame's offset
	limit  int64  // no frame may end past it
	buf    []byte // the file's bytes from bufOff; off lies within or at its end
	bufOff int64
}

// frameFault is a frame the cursor could not yield: where the frame
// ends (where it starts, when not even its length could be read),
// whether its checksum failed — the one failure that says the frame's
// bytes lie rather than its length — and why.
type frameFault struct {
	end    int64
	crc    bool
	detail string
}

func (e *frameFault) Error() string { return e.detail }

// next returns the body of the frame at off and advances past it, or
// nil at limit. With read false it reads nothing from the file, and a
// frame not already buffered reads as the end. A frame that is not
// whole and valid is a *frameFault and leaves off where it is. The
// body aliases the cursor's buffer until the next read.
func (c *segCursor) next(read bool) ([]byte, error) {
	for c.off < c.limit {
		win := c.buf[c.off-c.bufOff:]
		body, total, err := frameAt(win)
		if body != nil {
			c.off += int64(total)
			return body, nil
		}
		n := min(int64(max(total, readerChunkBytes)), c.limit-c.off)
		if err != nil || int64(len(win)) >= n {
			fault := &frameFault{end: c.off + int64(total), crc: err != nil && total > 0, detail: "record truncated"}
			if err != nil {
				fault.detail = err.Error()
			}
			return nil, fault
		}
		if !read {
			return nil, nil
		}
		// Read a chunk from off, or the whole frame when its length
		// prefix says it is larger.
		if int64(cap(c.buf)) < n {
			c.buf = make([]byte, n)
		}
		c.buf, c.bufOff = c.buf[:n], c.off
		if m, err := c.f.ReadAt(c.buf, c.off); int64(m) < n {
			c.buf = c.buf[:0]
			return nil, fmt.Errorf("wal: read %s: %w", c.name, err)
		}
	}
	return nil, nil
}

// frames returns the bytes of the whole frames from off — the first
// read in if need be, then every one buffered behind it — and advances
// past them; it returns nothing at limit. A fault in the first frame is
// the error; one further on ends the run and is the next call's error.
func (c *segCursor) frames() ([]byte, error) {
	start := c.off
	body, err := c.next(true)
	for body != nil {
		body, _ = c.next(false)
	}
	if err != nil {
		return nil, err
	}
	return c.buf[start-c.bufOff : c.off-c.bufOff], nil
}

// Reader streams raw framed records from the WAL's directory, starting
// at a Position and advancing across sealed segments up to the durable
// tail. It validates every frame's CRC before returning it, so a chunk
// handed to the network is exactly the bytes an fsync acknowledged.
//
// A Reader does not pin its own position — callers that must survive
// concurrent checkpoints (replication does) hold a Pin at or below the
// reader's segment. A Reader is not safe for concurrent use.
type Reader struct {
	w   *WAL
	seg uint64    // the segment c reads
	c   segCursor // c.f is nil once closed
}

// OpenReader positions a reader at pos. It returns ErrCompacted when
// pos cannot be served from the log, so that the caller ships a
// snapshot instead: the zero position (a bootstrap request), a segment
// compaction deleted, a position past the durable tail or past its
// sealed segment's end, and a position that is not a frame start (a
// follower of another leader names such). A bad header or an I/O
// failure is an error.
func (w *WAL) OpenReader(pos Position) (*Reader, error) {
	if pos.IsZero() {
		return nil, ErrCompacted
	}
	pos.Off = max(pos.Off, SegmentDataStart)
	tail := w.TailPosition()
	if tail.Less(pos) {
		return nil, ErrCompacted
	}
	r := &Reader{w: w}
	err := r.open(pos)
	if err == nil {
		err = r.bound(tail)
	}
	if err == nil {
		// The first frame at pos must read whole and valid; it stays
		// buffered for the first Next.
		var fault *frameFault
		if _, err = r.c.next(true); pos.Off > r.c.limit || errors.As(err, &fault) {
			err = ErrCompacted
		}
		r.c.off = pos.Off
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Pos returns the reader's current position: the first byte Next would
// return.
func (r *Reader) Pos() Position { return Position{Seg: r.seg, Off: r.c.off} }

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.c.f == nil {
		return nil
	}
	err := r.c.f.Close()
	r.c.f = nil
	return err
}

// open points the reader at pos, opening pos's segment and checking its
// header. A segment that is gone was compacted away.
func (r *Reader) open(pos Position) error {
	r.Close()
	path := segmentPath(r.w.dir, pos.Seg)
	f, err := r.w.fs.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return ErrCompacted
	}
	if err != nil {
		return err
	}
	r.seg = pos.Seg
	r.c = segCursor{f: f, name: filepath.Base(path), off: pos.Off, buf: r.c.buf[:0], bufOff: pos.Off}
	var hdr [segHeaderSize]byte
	if n, err := f.ReadAt(hdr[:], 0); n < segHeaderSize {
		return &core.CorruptError{Source: r.c.name, Detail: "segment header truncated", Err: err}
	}
	if _, off, detail := checkHeader(hdr, pos.Seg); detail != "" {
		return &core.CorruptError{Source: r.c.name, Offset: off, Detail: detail}
	}
	return nil
}

// bound sets the cursor's limit: the durable tail in the tail segment,
// the file's size in a sealed one.
func (r *Reader) bound(tail Position) error {
	if r.seg == tail.Seg {
		r.c.limit = tail.Off
		return nil
	}
	fi, err := r.c.f.Stat()
	if err != nil {
		return err
	}
	r.c.limit = fi.Size()
	return nil
}

// Next returns the next chunk of whole, CRC-valid frames along with
// the position of its first byte, advancing the reader past it. The
// chunk aliases the reader's internal buffer and is valid until the
// next call. It returns ErrNoData when caught up with the durable
// tail, ErrCompacted when the log prefix under the reader has been
// deleted (possible only for unpinned readers), and an error matching
// core.ErrCorrupt, with the segment file and byte offset, on a bad
// frame.
func (r *Reader) Next() ([]byte, Position, error) {
	for {
		tail := r.w.TailPosition()
		if tail.Seg < r.seg {
			return nil, Position{}, fmt.Errorf("wal: reader at segment %d past tail segment %d", r.seg, tail.Seg)
		}
		if err := r.bound(tail); err != nil {
			return nil, Position{}, err
		}
		start := r.Pos()
		chunk, err := r.c.frames()
		var fault *frameFault
		switch {
		case errors.As(err, &fault):
			return nil, Position{}, &core.CorruptError{Source: r.c.name, Offset: start.Off, Detail: fault.detail}
		case err != nil:
			return nil, Position{}, err
		case len(chunk) > 0:
			return chunk, start, nil
		case r.seg == tail.Seg:
			return nil, Position{}, ErrNoData
		}
		// Segment indexes are contiguous, so a missing successor means
		// compaction removed it: an unpinned reader fell below the
		// retention floor.
		if err := r.open(Position{Seg: r.seg + 1, Off: SegmentDataStart}); err != nil {
			return nil, Position{}, err
		}
	}
}

// frameAt validates the frame at the head of data, returning its
// CRC-checked record body and its encoded size. It is the log's one
// frame parser: the segment cursor and the follower's AppendChunkOps
// read frames through it. A frame that reaches past
// the end of data is not an error: the body is nil and total is the
// frame's size (0 when even the length prefix is incomplete). A
// checksum mismatch returns the frame's size with the error — the one
// failure that says the frame's bytes lie rather than its length.
func frameAt(data []byte) (body []byte, total int, err error) {
	length, n := binary.Uvarint(data)
	if n <= 0 {
		if len(data) >= binary.MaxVarintLen64 {
			return nil, 0, errors.New("bad record length varint")
		}
		return nil, 0, nil
	}
	if length == 0 || length > maxBatchPayload {
		return nil, 0, fmt.Errorf("implausible record length %d", length)
	}
	total = n + int(length) + crcSize
	if total > len(data) {
		return nil, total, nil
	}
	body = data[n : n+int(length)]
	if binary.LittleEndian.Uint32(data[n+int(length):]) != crc32.Checksum(body, castagnoli) {
		return nil, total, errors.New("checksum mismatch")
	}
	return body, total, nil
}

// AppendChunkOps decodes every record in a chunk of whole frames — the
// payload of one replication push — appending the ops to out in log
// order. Each record is validated completely (length plausibility,
// CRC, full body decode) before its ops are appended; on error the
// returned slice holds the ops of the records before the bad one and
// must be discarded.
func AppendChunkOps(data []byte, out []core.Op) ([]core.Op, error) {
	off := 0
	for off < len(data) {
		body, total, err := frameAt(data[off:])
		if err == nil && body == nil {
			err = errors.New("truncated frame")
		}
		if err != nil {
			return out, fmt.Errorf("wal: chunk offset %d: %w", off, err)
		}
		var detail string
		if out, detail = decodeRecord(body, out); detail != "" {
			return out, fmt.Errorf("wal: chunk offset %d: %s", off, detail)
		}
		off += total
	}
	return out, nil
}

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
// last byte a group commit has written. Like Segment it waits out an
// in-flight commit, so the bytes below the returned position are fully
// on the file (no frame ever straddles the tail — a group commit
// advances the size only after its whole write lands).
func (w *WAL) TailPosition() Position {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	return Position{Seg: w.seg, Off: w.size}
}

// readerChunkBytes bounds one Reader.Next chunk; a single frame larger
// than this is still returned whole.
const readerChunkBytes = 256 << 10

// Reader streams raw framed records from the WAL's directory, starting
// at a Position and advancing across sealed segments up to the durable
// tail. It validates every frame's CRC before returning it, so a chunk
// handed to the network is exactly the bytes an fsync acknowledged.
//
// A Reader does not pin its own position — callers that must survive
// concurrent checkpoints (replication does) hold a Pin at or below the
// reader's segment. A Reader is not safe for concurrent use.
type Reader struct {
	w    *WAL
	pos  Position
	f    vfs.File
	fSeg uint64
	buf  []byte
}

// OpenReader positions a reader at pos. It returns ErrCompacted when
// the position's segment has been deleted by compaction, when the
// position is the zero position (a bootstrap request), or when the
// position does not address real log bytes — in every such case the
// caller should ship a snapshot instead.
func (w *WAL) OpenReader(pos Position) (*Reader, error) {
	if pos.IsZero() {
		return nil, ErrCompacted
	}
	if pos.Off < SegmentDataStart {
		pos.Off = SegmentDataStart
	}
	tail := w.TailPosition()
	if tail.Less(pos) {
		// Claims bytes this log never wrote (a follower of some other
		// leader, or a log reset): not servable incrementally.
		return nil, ErrCompacted
	}
	r := &Reader{w: w, pos: pos}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

// Pos returns the reader's current position: the first byte Next would
// return.
func (r *Reader) Pos() Position { return r.pos }

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// open ensures r.f is the file for r.pos.Seg, validating its header.
func (r *Reader) open() error {
	if r.f != nil && r.fSeg == r.pos.Seg {
		return nil
	}
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	f, err := r.w.fs.OpenFile(segmentPath(r.w.dir, r.pos.Seg), os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return ErrCompacted
		}
		return err
	}
	var hdr [segHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: read header of segment %d: %w", r.pos.Seg, err)
	}
	if _, _, detail := checkHeader(hdr, r.pos.Seg); detail != "" {
		f.Close()
		return fmt.Errorf("wal: segment %d: bad header: %s", r.pos.Seg, detail)
	}
	r.f, r.fSeg = f, r.pos.Seg
	return nil
}

// Next returns the next chunk of whole, CRC-valid frames along with
// the position of its first byte, advancing the reader past it. The
// chunk aliases the reader's internal buffer and is valid until the
// next call. It returns ErrNoData when caught up with the durable
// tail and ErrCompacted when the log prefix under the reader has been
// deleted (possible only for unpinned readers).
func (r *Reader) Next() ([]byte, Position, error) {
	for {
		tail := r.w.TailPosition()
		if tail.Seg < r.pos.Seg {
			return nil, Position{}, fmt.Errorf("wal: reader at segment %d past tail segment %d", r.pos.Seg, tail.Seg)
		}
		if err := r.open(); err != nil {
			return nil, Position{}, err
		}
		sealed := r.pos.Seg < tail.Seg
		var limit int64
		if sealed {
			fi, err := r.f.Stat()
			if err != nil {
				return nil, Position{}, err
			}
			limit = fi.Size()
		} else {
			limit = tail.Off
		}
		if r.pos.Off >= limit {
			if !sealed {
				return nil, Position{}, ErrNoData
			}
			if err := r.nextSegment(); err != nil {
				return nil, Position{}, err
			}
			continue
		}
		return r.read(limit - r.pos.Off)
	}
}

// read returns up to readerChunkBytes of whole frames from the current
// segment, where avail bytes of durable data remain past r.pos.Off.
func (r *Reader) read(avail int64) ([]byte, Position, error) {
	n := int(min(avail, readerChunkBytes))
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := r.f.ReadAt(b, r.pos.Off); err != nil {
		return nil, Position{}, fmt.Errorf("wal: read segment %d: %w", r.pos.Seg, err)
	}
	valid, nextFrame, err := frameSpan(b)
	if err != nil {
		return nil, Position{}, fmt.Errorf("wal: segment %d offset %d: %w", r.pos.Seg, r.pos.Off, err)
	}
	if valid == 0 {
		// The first frame is larger than the chunk. Its size is known
		// from the length prefix; a frame reaching past the durable
		// limit cannot happen (commits advance the tail only after the
		// whole write), so that reads as damage.
		if nextFrame == 0 || int64(nextFrame) > avail {
			return nil, Position{}, fmt.Errorf("wal: segment %d offset %d: frame straddles durable tail", r.pos.Seg, r.pos.Off)
		}
		if cap(r.buf) < nextFrame {
			r.buf = make([]byte, nextFrame)
		}
		b = r.buf[:nextFrame]
		if _, err := r.f.ReadAt(b, r.pos.Off); err != nil {
			return nil, Position{}, fmt.Errorf("wal: read segment %d: %w", r.pos.Seg, err)
		}
		if valid, _, err = frameSpan(b); err != nil || valid != nextFrame {
			return nil, Position{}, fmt.Errorf("wal: segment %d offset %d: oversized frame failed validation: %v", r.pos.Seg, r.pos.Off, err)
		}
	}
	start := r.pos
	r.pos.Off += int64(valid)
	return b[:valid], start, nil
}

// nextSegment advances past an exhausted sealed segment. Segment
// indexes are contiguous, so a missing successor means compaction
// removed it — an unpinned reader fell below the retention floor.
func (r *Reader) nextSegment() error {
	next := r.pos.Seg + 1
	if _, err := r.w.fs.Stat(segmentPath(r.w.dir, next)); err != nil {
		if os.IsNotExist(err) {
			return ErrCompacted
		}
		return err
	}
	r.pos = Position{Seg: next, Off: SegmentDataStart}
	return nil
}

// frameAt validates the frame at the head of data, returning its
// CRC-checked record body and its encoded size. It is the log's one
// frame parser: replay, the shipping Reader and the follower's
// AppendChunkOps all read frames through it. A frame that reaches past
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

// frameSpan walks data and returns the byte length of its longest
// prefix of whole, CRC-valid frames. A complete frame that fails
// validation is an error. A trailing partial frame is not an error:
// its total encoded size is returned (0 when even the length prefix is
// incomplete) so the caller can fetch enough bytes for it.
func frameSpan(data []byte) (valid, nextFrame int, err error) {
	off := 0
	for off < len(data) {
		body, total, err := frameAt(data[off:])
		if err != nil {
			return 0, 0, err
		}
		if body == nil {
			return off, total, nil
		}
		off += total
	}
	return off, 0, nil
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

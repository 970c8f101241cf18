package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// ReplayStats summarises one replay pass.
type ReplayStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Records is how many intact ops were delivered, counting every op
	// expanded out of a batch record.
	Records uint64
	// BatchRecords is how many OpBatch frames were decoded.
	BatchRecords uint64
	// TornBytes is the size of the dropped torn tail, zero for a log
	// that was cleanly closed.
	TornBytes int64
}

// Replay streams every intact record in segments with index >= fromSeg,
// in log order, to fn. A torn tail on the newest segment — the residue
// of a crash mid-write — is dropped and counted in TornBytes; damage
// anywhere else fails with an error matching core.ErrCorrupt that
// carries the segment file and byte offset. Use fromSeg 0 to replay the
// whole directory, or a checkpoint's cut segment to replay only the
// records the snapshot does not cover.
func Replay(dir string, fromSeg uint64, fn func(op Op, u, v uint64) error) (ReplayStats, error) {
	return ReplayFS(vfs.OS, dir, fromSeg, fn)
}

// ReplayFS is Replay on an arbitrary filesystem — the entry point for
// crash-simulation harnesses that reconstruct a directory elsewhere.
func ReplayFS(fsys vfs.FS, dir string, fromSeg uint64, fn func(op Op, u, v uint64) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(fsys, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil
		}
		return stats, err
	}
	for i, s := range segs {
		if s.index < fromSeg {
			continue
		}
		last := i == len(segs)-1
		valid, n, batches, err := scanSegment(fsys, s.path, s.index, last, fn)
		if err != nil {
			return stats, err
		}
		stats.Segments++
		stats.Records += n
		stats.BatchRecords += batches
		if last {
			if fi, err := fsys.Stat(s.path); err == nil && fi.Size() > valid {
				stats.TornBytes = fi.Size() - valid
			}
		}
	}
	return stats, nil
}

// scanSegment reads one segment, delivering ops to fn (which may be
// nil to just validate). It returns the byte length of the intact
// prefix, the delivered op count and the batch-record count. With
// tolerateTail set — correct only for the newest segment — damage that
// looks like a crash mid-write is a torn tail and ends the scan cleanly
// at the last intact record. A tear is recognised when the bad record
// physically reaches end-of-file: the read hit EOF inside the record, a
// complete-but-CRC-failing frame ends exactly at EOF (the final write's
// bytes exist but lie), the whole remaining region fits inside one
// single-op frame, or everything after the failed record is zero bytes
// — the residue of a filesystem that extended the file before the
// data of a large (batch or group-commit) write landed; an all-zero
// region cannot hold acknowledged records, because every record starts
// with a nonzero length byte. Damage followed by further intact
// (nonzero) data cannot be a tear, so even on the newest segment it is
// reported as corruption rather than silently dropping the
// acknowledged records after it. Batch ops are validated whole before
// any of them is delivered: a record never applies partially.
func scanSegment(fsys vfs.FS, path string, index uint64, tolerateTail bool, fn func(op Op, u, v uint64) error) (int64, uint64, uint64, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	fileSize := fi.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	name := filepath.Base(path)

	corrupt := func(off int64, detail string, cause error) error {
		return &core.CorruptError{Source: name, Offset: off, Detail: detail, Err: cause}
	}

	// headerTear classifies a header that failed validation on the
	// newest segment: when the file is a prefix of the expected header
	// followed by nothing but zeros, the crash struck the segment's
	// create — the file carries no records and is recreated whole by
	// the next open. Landed non-header bytes refuse the tear: they mean
	// the header validated once and was damaged later, which is
	// corruption, not a crash artifact.
	headerTear := func() (bool, error) {
		var want [segHeaderSize]byte
		binary.LittleEndian.PutUint32(want[0:], segMagic)
		want[4] = segVersion
		binary.LittleEndian.PutUint64(want[5:], index)
		var got [segHeaderSize]byte
		n, err := f.ReadAt(got[:], 0)
		if err != nil && err != io.EOF {
			return false, err
		}
		match := 0
		for match < n && got[match] == want[match] {
			match++
		}
		return zeroToEOF(f, int64(match), fileSize)
	}
	badHeader := func(off int64, detail string) (int64, uint64, uint64, error) {
		if tolerateTail {
			torn, terr := headerTear()
			if terr != nil {
				return 0, 0, 0, fmt.Errorf("wal: classify header of %s: %w", name, terr)
			}
			if torn {
				return 0, 0, 0, nil
			}
		}
		return 0, 0, 0, corrupt(off, detail, nil)
	}

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if tolerateTail {
			// A crash can even tear the header write of a fresh segment.
			return 0, 0, 0, nil
		}
		return 0, 0, 0, corrupt(0, "segment header truncated", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != segMagic {
		return badHeader(0, "not a WAL segment")
	}
	if hdr[4] != segVersion {
		return badHeader(4, fmt.Sprintf("unsupported WAL version %d", hdr[4]))
	}
	if got := binary.LittleEndian.Uint64(hdr[5:]); got != index {
		return badHeader(5, fmt.Sprintf("segment claims index %d, file named %d", got, index))
	}

	// The legacy tear window: garbage entirely within one single-op
	// frame of end-of-file is dropped even when it does not read as a
	// truncation.
	const maxSingleFrame = frameOverhead + maxPayload
	valid := int64(segHeaderSize)
	var records, batches uint64
	var payload []byte // reused; grows to the largest record seen
	var scratch []core.Op
	for {
		length, n, err := readUvarintCounted(br)
		if err == io.EOF && n == 0 {
			return valid, records, batches, nil // clean end on a record boundary
		}
		// bad classifies a failed record. frameEnd is the record's byte
		// end when the whole frame was read, -1 when the failure struck
		// earlier; truncated marks reads that hit EOF inside the record;
		// crcFailed marks the one failure mode that proves the frame's
		// bytes never landed as written.
		bad := func(frameEnd int64, truncated, crcFailed bool, detail string, cause error) (int64, uint64, uint64, error) {
			if tolerateTail {
				if truncated || frameEnd == fileSize || fileSize-valid <= maxSingleFrame {
					return valid, records, batches, nil
				}
				// Large writes (batch records, group commits) tear big:
				// when the filesystem extended the file but the data
				// never landed, the tail past the failed frame is zeros,
				// and zeros cannot encode an acknowledged record. The
				// failed frame itself may be skipped over only when its
				// CRC failed — a CRC-valid frame with a malformed body
				// was durably written exactly as some writer intended,
				// and silently dropping it would bury acknowledged data;
				// without a CRC verdict the zero check must start at the
				// record head, so any landed (nonzero) bytes refuse the
				// tear.
				from := valid
				if crcFailed && frameEnd > 0 {
					from = frameEnd
				}
				allZero, zerr := zeroToEOF(f, from, fileSize)
				if zerr != nil {
					return 0, 0, 0, fmt.Errorf("wal: classify tail of %s: %w", name, zerr)
				}
				if allZero {
					return valid, records, batches, nil
				}
			}
			return 0, 0, 0, corrupt(valid, detail, cause)
		}
		if err != nil {
			return bad(-1, err == io.EOF || err == io.ErrUnexpectedEOF, false, "record length truncated", err)
		}
		if length == 0 || length > maxBatchPayload {
			return bad(-1, false, false, fmt.Sprintf("implausible record length %d", length), nil)
		}
		if int(length) > cap(payload) {
			payload = make([]byte, length)
		}
		p := payload[:length]
		if _, err := io.ReadFull(br, p); err != nil {
			return bad(-1, true, false, "record payload truncated", err)
		}
		var crcb [crcSize]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			return bad(-1, true, false, "record checksum truncated", err)
		}
		frameEnd := valid + int64(n) + int64(length) + crcSize
		if binary.LittleEndian.Uint32(crcb[:]) != crc32.Checksum(p, castagnoli) {
			return bad(frameEnd, false, true, "checksum mismatch", nil)
		}
		ops, detail := decodeRecord(p, scratch[:0])
		if detail != "" {
			return bad(frameEnd, false, false, detail, nil)
		}
		scratch = ops[:0]
		if fn != nil {
			for _, o := range ops {
				if err := fn(Op(o.Kind), o.U, o.V); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		records += uint64(len(ops))
		if Op(p[0]) == OpBatch {
			batches++
		}
		valid = frameEnd
	}
}

// zeroToEOF reports whether every byte of f in [from, end) is zero.
// It reads through the file descriptor directly (ReadAt), independent
// of the scanner's buffered position. An I/O failure is returned as an
// error — a read that could not happen proves nothing about the bytes,
// and must not be mistaken for a corruption verdict.
func zeroToEOF(f io.ReaderAt, from, end int64) (bool, error) {
	buf := make([]byte, 64<<10)
	for off := from; off < end; {
		n, err := f.ReadAt(buf[:min(int64(len(buf)), end-off)], off)
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		off += int64(n)
		if err == io.EOF && off >= end {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// decodeRecord parses one record body — the CRC-checked payload of a
// frame: a single op, or the OpBatch tag, an op count and that many ops
// — appending its ops to out. It is the one decoder of the format:
// replay and log shipping both call it. The record is validated whole
// before anything is delivered: on a malformation (an unknown tag or op
// kind, a bad varint, a batch count out of range or disagreeing with the
// encoded ops, bytes left over) it returns out as given and a non-empty
// detail.
func decodeRecord(p []byte, out []core.Op) ([]core.Op, string) {
	switch Op(p[0]) {
	case OpInsert, OpDelete:
		if op, n := decodeOp(p); n == len(p) {
			return append(out, op), ""
		}
		return out, "bad u/v varint"
	case OpBatch:
		count, cn := core.Uvarint(p[1:])
		if cn <= 0 || count == 0 || count > maxBatchOps {
			return out, "malformed batch record"
		}
		ops, body := out, p[1+cn:]
		for ; count > 0; count-- {
			op, n := decodeOp(body)
			if n == 0 {
				return out, "malformed batch record"
			}
			ops, body = append(ops, op), body[n:]
		}
		if len(body) != 0 {
			return out, "malformed batch record"
		}
		return ops, ""
	}
	return out, fmt.Sprintf("unknown op %d", p[0])
}

// decodeOp parses one op — kind byte, u, v — from the head of b and
// reports how many bytes it took, 0 when b does not start with a whole
// insert or delete.
func decodeOp(b []byte) (core.Op, int) {
	if len(b) == 0 || (Op(b[0]) != OpInsert && Op(b[0]) != OpDelete) {
		return core.Op{}, 0
	}
	u, un := core.Uvarint(b[1:])
	if un <= 0 {
		return core.Op{}, 0
	}
	v, vn := core.Uvarint(b[1+un:])
	if vn <= 0 {
		return core.Op{}, 0
	}
	return core.Op{Kind: core.OpKind(b[0]), U: u, V: v}, 1 + un + vn
}

// readUvarintCounted decodes a uvarint and reports how many bytes it
// consumed, so the scanner can keep exact offsets.
func readUvarintCounted(br *bufio.Reader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, i, err
		}
		if i == core.MaxVarintLen64 {
			return 0, i + 1, fmt.Errorf("wal: uvarint overflows 64 bits")
		}
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// RecoverStats summarises one recovery.
type RecoverStats struct {
	// Snapshot is the checkpoint file that anchored recovery, empty if
	// recovery replayed the log from its beginning.
	Snapshot string
	// SnapshotSeg is the snapshot's cut segment: replay started there.
	SnapshotSeg uint64
	// Replay covers the log-tail pass.
	Replay ReplayStats
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// Recover rebuilds a sharded graph from dir: load the newest checkpoint
// snapshot, if any, then replay the log tail the snapshot does not
// cover. An empty or missing directory yields an empty graph. The
// returned graph has no WAL attached; callers typically Open the same
// directory next and SetWAL it.
func Recover(dir string, cfg sharded.Config) (*sharded.Graph, RecoverStats, error) {
	return RecoverFS(vfs.OS, dir, cfg)
}

// RecoverFS is Recover on an arbitrary filesystem.
func RecoverFS(fsys vfs.FS, dir string, cfg sharded.Config) (*sharded.Graph, RecoverStats, error) {
	var stats RecoverStats
	start := time.Now()
	cfg.WAL = nil

	snap, seg, err := newestCheckpoint(fsys, dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, err
	}
	var g *sharded.Graph
	if snap != "" {
		f, err := fsys.OpenFile(snap, os.O_RDONLY, 0)
		if err != nil {
			return nil, stats, err
		}
		g, err = sharded.Load(f, cfg)
		f.Close()
		if err != nil {
			return nil, stats, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(snap), err)
		}
		stats.Snapshot, stats.SnapshotSeg = snap, seg
	} else {
		g = sharded.New(cfg)
	}

	// Replay through the batch path: chunks preserve log order per
	// source node (the order that matters) while amortizing shard locks
	// — recovery is itself a bulk ingest.
	c := core.NewChunker(sharded.LoadBatchSize, func(b core.Batch) { g.ApplyBatch(b) })
	stats.Replay, err = ReplayFS(fsys, dir, seg, func(op Op, u, v uint64) error {
		switch op {
		case OpInsert:
			c.Insert(u, v)
		case OpDelete:
			c.Delete(u, v)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	c.Flush()
	stats.Elapsed = time.Since(start)
	return g, stats, nil
}

// Checkpoint writes a consistent snapshot of g into the WAL directory
// and compacts the log: the snapshot is cut against a segment rotation
// (see sharded.Graph.SnapshotCut for why the cut is exact), fsynced and
// atomically renamed into place, and only then are the superseded
// segments and older checkpoints deleted — so a crash at any point
// leaves either the old recovery state or the new one, never neither.
// It returns the checkpoint file path.
func Checkpoint(g *sharded.Graph, w *WAL) (string, error) {
	dir, fsys := w.Dir(), w.FS()
	tmp, err := vfs.CreateTemp(fsys, dir, "checkpoint-*.tmp")
	if err != nil {
		return "", err
	}
	defer fsys.Remove(tmp.Name()) // no-op after the rename succeeds

	var cut uint64
	v, err := g.SnapshotCut(func() (rerr error) {
		cut, rerr = w.Rotate()
		return rerr
	})
	if err == nil {
		err = v.Save(tmp)
		v.Release()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}

	final := checkpointPath(dir, cut)
	if err := fsys.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	if err := syncDir(fsys, dir); err != nil {
		return "", err
	}
	if err := w.RemoveSegmentsBefore(cut); err != nil {
		return final, err
	}
	if err := removeCheckpointsBefore(fsys, dir, cut); err != nil {
		return final, err
	}
	return final, nil
}

func checkpointPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", checkpointPrefix, seg, checkpointSuffix))
}

// newestCheckpoint returns the path and cut segment of the newest
// checkpoint snapshot in dir, or ("", 0, nil) when there is none.
func newestCheckpoint(fsys vfs.FS, dir string) (string, uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	var best string
	var bestSeg uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		seg, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix), 10, 64)
		if err != nil {
			continue
		}
		if best == "" || seg > bestSeg {
			best, bestSeg = filepath.Join(dir, name), seg
		}
	}
	return best, bestSeg, nil
}

func removeCheckpointsBefore(fsys vfs.FS, dir string, seg uint64) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var removed bool
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix), 10, 64)
		if err != nil || s >= seg {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return syncDir(fsys, dir)
	}
	return nil
}

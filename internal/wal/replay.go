package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// BatchRecords is how many batch records were decoded — every
	// record, unless the log holds single-op records of an earlier build.
	BatchRecords uint64
	// TornBytes is the size of the dropped torn tail, zero for a log
	// that was cleanly closed.
	TornBytes int64
}

// Replay streams every intact op in segments with index >= fromSeg, in
// log order, to fn. A torn tail on the newest segment — the residue
// of a crash mid-write — is dropped and counted in TornBytes; damage
// anywhere else fails with an error matching core.ErrCorrupt that
// carries the segment file and byte offset. Use fromSeg 0 to replay the
// whole directory, or a checkpoint's cut segment to replay only the
// records the snapshot does not cover.
func Replay(dir string, fromSeg uint64, fn func(core.Op) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(vfs.OS, dir)
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
		if _, err := scanSegment(vfs.OS, s, i == len(segs)-1, fn, &stats); err != nil {
			return stats, err
		}
		stats.Segments++
	}
	return stats, nil
}

// scanSegment reads one segment, delivering ops to fn (which may be
// nil to just validate) and adding its records, batch records and torn
// bytes to st. It returns the byte length of the intact prefix. With
// tolerateTail set — correct only for the newest segment — damage that
// looks like a crash mid-write is a torn tail and ends the scan cleanly
// at the last intact record. A tear is recognised when the bad record
// physically reaches end-of-file: the frame runs past EOF, a
// complete-but-CRC-failing frame ends exactly at EOF (the final write's
// bytes exist but lie), the whole remaining region fits inside one
// lone-op record (maxLoneFrame), or everything after the failed record
// is zero bytes — the residue of a filesystem that extended the file
// before the data of a large (batch or group-commit) write landed; an
// all-zero region cannot hold acknowledged records, because every
// record starts with a nonzero length byte. Damage followed by further
// intact (nonzero) data cannot be a tear, so even on the newest segment
// it is reported as corruption rather than silently dropping the
// acknowledged records after it. Batch ops are validated whole before
// any of them is delivered: a record never applies partially.
//
// The frames come from a segCursor run to end-of-file, the reader the
// shipping Reader uses; the tear rules are what scanSegment adds.
func scanSegment(fsys vfs.FS, seg numberedFile, tolerateTail bool, fn func(core.Op) error, st *ReplayStats) (int64, error) {
	f, err := fsys.OpenFile(seg.path, os.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	fileSize := fi.Size()
	name := filepath.Base(seg.path)

	corrupt := func(off int64, detail string, cause error) error {
		return &core.CorruptError{Source: name, Offset: off, Detail: detail, Err: cause}
	}
	tear := func(valid int64) (int64, error) {
		st.TornBytes = fileSize - valid
		return valid, nil
	}

	var hdr [segHeaderSize]byte
	if n, err := f.ReadAt(hdr[:], 0); n < segHeaderSize {
		if tolerateTail {
			// A crash can even tear the header write of a fresh segment.
			return tear(0)
		}
		return 0, corrupt(0, "segment header truncated", err)
	}
	if match, off, detail := checkHeader(hdr, seg.index); detail != "" {
		// On the newest segment, a file that is a prefix of the expected
		// header followed by nothing but zeros is the crash striking the
		// segment's create — it carries no records and is recreated whole
		// by the next open. Landed non-header bytes refuse the tear: they
		// mean the header validated once and was damaged later, which is
		// corruption, not a crash artifact.
		if tolerateTail {
			torn, err := zeroToEOF(f, int64(match), fileSize)
			if err != nil {
				return 0, fmt.Errorf("wal: classify header of %s: %w", name, err)
			}
			if torn {
				return tear(0)
			}
		}
		return 0, corrupt(off, detail, nil)
	}

	c := segCursor{f: f, name: name, off: segHeaderSize, limit: fileSize, bufOff: segHeaderSize}
	valid := c.off
	// bad classifies the failed frame at valid. frameEnd is where the
	// frame ends (valid itself when not even its length could be read);
	// crcFailed marks the one failure mode that proves the frame's bytes
	// never landed as written.
	bad := func(frameEnd int64, crcFailed bool, detail string) (int64, error) {
		if tolerateTail {
			if frameEnd >= fileSize || fileSize-valid <= maxLoneFrame {
				return tear(valid)
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
			if crcFailed {
				from = frameEnd
			}
			allZero, err := zeroToEOF(f, from, fileSize)
			if err != nil {
				return 0, fmt.Errorf("wal: classify tail of %s: %w", name, err)
			}
			if allZero {
				return tear(valid)
			}
		}
		return 0, corrupt(valid, detail, nil)
	}

	var ops []core.Op
	for {
		body, err := c.next(true)
		var fault *frameFault
		if errors.As(err, &fault) {
			return bad(fault.end, fault.crc, fault.detail)
		}
		if err != nil {
			return 0, err
		}
		if body == nil {
			return valid, nil
		}
		var detail string
		if ops, detail = decodeRecord(body, ops[:0]); detail != "" {
			return bad(c.off, false, detail)
		}
		if fn != nil {
			for _, o := range ops {
				if err := fn(o); err != nil {
					return 0, err
				}
			}
		}
		st.Records += uint64(len(ops))
		if body[0] == recBatch {
			st.BatchRecords++
		}
		valid = c.off
	}
}

// zeroToEOF reports whether every byte of f in [from, end) is zero.
// An I/O failure is returned as an error — a read that could not happen
// proves nothing about the bytes, and must not be mistaken for a
// corruption verdict.
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
// frame: the recBatch tag, an op count and that many ops — appending
// its ops to out. It is the one decoder of the format: replay and log
// shipping both call it. A body that is one bare op is a single-op
// record, which builds before every record became a batch wrote; it is
// read, never written. The record is validated whole before anything is
// delivered: on a malformation (an unknown tag or op kind, a bad
// varint, a batch count out of range or disagreeing with the encoded
// ops, bytes left over) it returns out as given and a non-empty detail.
func decodeRecord(p []byte, out []core.Op) ([]core.Op, string) {
	switch core.OpKind(p[0]) {
	case core.OpInsert, core.OpDelete:
		if op, n := decodeOp(p); n == len(p) {
			return append(out, op), ""
		}
		return out, "bad u/v varint"
	case recBatch:
		count, cn := binary.Uvarint(p[1:])
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
	if len(b) == 0 || (core.OpKind(b[0]) != core.OpInsert && core.OpKind(b[0]) != core.OpDelete) {
		return core.Op{}, 0
	}
	u, un := binary.Uvarint(b[1:])
	if un <= 0 {
		return core.Op{}, 0
	}
	v, vn := binary.Uvarint(b[1+un:])
	if vn <= 0 {
		return core.Op{}, 0
	}
	return core.Op{Kind: core.OpKind(b[0]), U: u, V: v}, 1 + un + vn
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
	var stats RecoverStats
	start := time.Now()
	cfg.WAL = nil

	snap, seg, err := newestCheckpoint(vfs.OS, dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, err
	}
	var g *sharded.Graph
	if snap != "" {
		f, err := vfs.OS.OpenFile(snap, os.O_RDONLY, 0)
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
	stats.Replay, err = Replay(dir, seg, func(o core.Op) error {
		c.Add(o)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	c.Flush()
	stats.Elapsed = time.Since(start)
	return g, stats, nil
}

// CutView takes a view of g cut against a rotation of w, and returns
// it with the rotation's new segment: the view holds exactly the
// records of the segments before it (see sharded.Graph.SnapshotCut for
// why the cut is exact). Checkpoint and the replication bootstrap both
// start from it. The caller releases the view.
func CutView(g *sharded.Graph, w *WAL) (v *sharded.View, cut uint64, err error) {
	v, err = g.SnapshotCut(func() (rerr error) {
		cut, rerr = w.Rotate()
		return rerr
	})
	return v, cut, err
}

// Checkpoint writes a consistent snapshot of g into the WAL directory
// and compacts the log: the snapshot is cut against a segment rotation
// (CutView), fsynced and atomically renamed into place, and only then
// are the superseded segments and older checkpoints deleted — so a
// crash at any point leaves either the old recovery state or the new
// one, never neither. It returns the checkpoint file path.
func Checkpoint(g *sharded.Graph, w *WAL) (string, error) {
	dir, fsys := w.Dir(), w.FS()
	tmp, err := vfs.CreateTemp(fsys, dir, "checkpoint-*.tmp")
	if err != nil {
		return "", err
	}
	defer fsys.Remove(tmp.Name()) // no-op after the rename succeeds

	v, cut, err := CutView(g, w)
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
	cps, err := listNumbered(fsys, dir, checkpointPrefix, checkpointSuffix)
	if err != nil || len(cps) == 0 {
		return "", 0, err
	}
	newest := cps[len(cps)-1]
	return newest.path, newest.index, nil
}

func removeCheckpointsBefore(fsys vfs.FS, dir string, seg uint64) error {
	cps, err := listNumbered(fsys, dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		return err
	}
	removed := false
	for _, c := range cps {
		if c.index >= seg {
			break
		}
		if err := fsys.Remove(c.path); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return syncDir(fsys, dir)
	}
	return nil
}

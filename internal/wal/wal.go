// Package wal is the durability engine under the sharded CuckooGraph:
// a segmented, CRC-checksummed, append-only log of edge mutations plus
// snapshot-anchored recovery.
//
// Each segment file starts with a 13-byte header (magic, version,
// segment index) followed by self-delimiting records, every one a batch:
//
//	uvarint payloadLen | payload | crc32c(payload)
//	payload = 3 | uvarint count | count × (kind | uvarint u | uvarint v)
//
// where kind is a core.OpKind (1 insert, 2 delete). Logs written before
// every record became a batch also hold single-op payloads — kind |
// uvarint u | uvarint v — which replay still reads and nothing writes.
//
// Appending has two halves. Stage copies a batch's ops into the open
// group under the WAL lock and returns — no encoding, no CRC, no I/O —
// so a caller may stage while holding a lock of its own (the sharded
// engine stages under the shard lock, which is what makes log order
// equal apply order per shard). Commit returns once everything staged
// before the call is durable per the sync policy: the first committer
// becomes the leader, frames the whole accumulated group as one record
// (one CRC), writes it with one write(2) and, under SyncAlways, one
// fsync, then wakes the followers. A group therefore grows with every
// stager that arrives while the device is busy, and fsync latency is
// amortized across all of them. Append, AppendBatch and LogBatch are
// the synchronous form, Stage followed by Commit. The WAL starts no
// goroutine: only the group-commit leader, or a holder of the WAL lock
// with no leader in flight (Sync, Rotate, Close), writes the segment
// file.
//
// Recovery tolerates a torn tail (a crash mid-write leaves a partial or
// CRC-failing final record, which is dropped) but treats damage
// anywhere else as core.ErrCorrupt. Checkpoint writes a consistent
// snapshot cut against a segment rotation and deletes the log prefix
// the snapshot supersedes, bounding replay work.
//
// The log is also readable while open: Reader streams CRC-validated
// frame chunks from any Position up to the durable tail (the
// replication shipping path), and Pin holds a retention floor so
// RemoveSegmentsBefore — which now scans and deletes entirely under
// the WAL lock; see its contract note — can never unlink a segment a
// reader still needs.
//
// All file access goes through the internal/vfs seam (Options.FS), so
// tests inject deterministic storage faults and record write traces
// for power-cut simulation; a write or fsync failure poisons the log
// with a sticky error — it must be reopened, not written around. The
// crash-consistency harness and the server's degraded-mode contract
// are documented in README.md § Failure modes & degraded operation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"cuckoograph/internal/core"
	"cuckoograph/internal/vfs"
)

// recBatch opens every record payload this package writes. The ops
// inside carry their core.OpKind byte as is; a payload that opens with
// one of those instead is a single-op record of an earlier build.
const recBatch = 3

// ParseSyncPolicy maps the user-facing policy names — the wal_enable
// command argument and the cgserver -wal-sync flag share it. The empty
// string means the default, SyncAlways.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "always":
		return SyncAlways, nil
	case "nosync":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always|nosync)", s)
}

// SyncPolicy says when Append fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs once per group commit: every acknowledged
	// record survives both process and machine crash.
	SyncAlways SyncPolicy = iota
	// SyncNone writes without fsync: acknowledged records survive a
	// process crash (they are in the page cache) but a machine crash can
	// lose the un-synced suffix. Rotation and Close still fsync.
	SyncNone
)

// String renders the policy in the same names ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "nosync"
	}
	return "always"
}

// Options tunes a WAL.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment that reaches it
	// is closed and a new one started. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// Sync is the fsync policy for group commits.
	Sync SyncPolicy
	// FS is the filesystem the log lives on; nil means vfs.OS. Tests
	// substitute a vfs.FaultFS to inject storage failures and record
	// write traces for crash simulation.
	FS vfs.FS
}

// DefaultSegmentBytes is the default segment rotation threshold.
const DefaultSegmentBytes = 64 << 20

const (
	segMagic   = 0x4C574743 // "CGWL" little-endian
	segVersion = 1
	// segHeaderSize is magic (4) + version (1) + segment index (8).
	segHeaderSize = 13
	crcSize       = 4
	// maxLoneFrame is the widest record holding one op: a one-byte
	// length prefix, the tag, a one-byte count, the kind, two maximal
	// uvarints and the CRC — 28 bytes.
	maxLoneFrame = 1 + 3 + 2*binary.MaxVarintLen64 + crcSize

	// maxBatchOps caps the ops framed into one record; larger batches
	// are chunked into several records (still written by one group
	// commit). The cap bounds maxBatchPayload, the plausibility limit
	// for any record's length prefix — anything larger is damage, not a
	// record.
	maxBatchOps     = 32768
	maxBatchPayload = 1 + binary.MaxVarintLen64 + maxBatchOps*(1+2*binary.MaxVarintLen64)

	// retainedBufBytes caps what each reused buffer — the two of the
	// group swap and the frame — keeps between commits. A page apiece
	// holds a pipeline drain of up to 170 ops; bulk batches allocate
	// theirs per commit, as they always did, rather than pin them for
	// the WAL's lifetime.
	retainedBufBytes = 4 << 10
	// opBytes is the in-memory size of one staged op.
	opBytes = int(unsafe.Sizeof(core.Op{}))

	segSuffix        = ".seg"
	segPrefix        = "wal-"
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// WAL is an open, appendable log rooted at one directory.
type WAL struct {
	dir  string
	opts Options
	fs   vfs.FS   // opts.FS, defaulted; every disk touch goes through it
	lock vfs.File // flock-held LOCK file: one writing process per dir

	mu   sync.Mutex
	cond *sync.Cond
	f    vfs.File // current segment, positioned at its end
	seg  uint64   // current segment index
	size int64    // bytes written to the current segment

	// staged is the open group: the ops of every Stage call since the
	// last group was taken, in stage order, not yet encoded. cuts are
	// the record boundaries inside it that a batch must not straddle
	// (see Stage); almost always empty. Whoever writes the group swaps
	// staged with spare and encodes into frame, so neither buffer is
	// allocated once warm. Stage calls are numbered by cAppends;
	// flushed is the highest number durable per the sync policy, an
	// atomic so Commit can see "nothing to wait for" without mu.
	staged   core.Batch
	cuts     []int
	spare    core.Batch
	frame    []byte // encode buffer; owned by whoever writes the group
	flushed  atomic.Uint64
	flushing bool  // a leader is writing outside mu
	err      error // sticky: first write/sync failure poisons the WAL
	closed   bool

	// pins holds the live retention pins (see Pin): compaction via
	// RemoveSegmentsBefore never deletes a segment at or above the
	// lowest pinned index, so log shippers can read sealed segments
	// without racing checkpoint-driven deletion.
	pins map[*Pin]struct{}

	// Observability counters. Atomics, not mu-guarded fields: the group
	// commit leader bumps bytes/commits/syncs with mu released, and the
	// /metrics scraper must be able to read without queueing behind an
	// fsync.
	cAppends atomic.Uint64 // accepted Stage calls; doubles as the stage sequence
	cRecords atomic.Uint64 // framed records (a chunked group counts per chunk)
	cOps     atomic.Uint64 // edge mutations staged
	cBytes   atomic.Uint64 // frame bytes handed to write(2)
	cCommits atomic.Uint64 // group commits (write(2) batches)
	cSyncs   atomic.Uint64 // fsyncs of segment data
	cRotates atomic.Uint64 // segment rotations
}

// Stats is a point-in-time snapshot of the WAL's observability
// counters — the export hook behind the server's /metrics endpoint.
type Stats struct {
	Appends      uint64 // accepted Stage calls (Append, AppendBatch and LogBatch are one each)
	Records      uint64 // framed records handed to write(2)
	Ops          uint64 // edge mutations staged
	Bytes        uint64 // frame bytes handed to write(2)
	GroupCommits uint64 // write(2) batches (group commits)
	Syncs        uint64 // fsyncs of segment data
	Rotations    uint64 // segment rotations
	Segment      uint64 // segment currently appended to
	PendingBytes uint64 // in-memory bytes of staged ops not yet taken by a group commit
	Failed       bool   // the sticky error has poisoned the WAL
	Closed       bool   // Close has run; the counters are final
}

// Stats returns the current counters. Like Segment it waits out an
// in-flight group commit before reading the mu-guarded segment state;
// the counters themselves are atomic.
func (w *WAL) Stats() Stats {
	st := Stats{
		Appends:      w.cAppends.Load(),
		Records:      w.cRecords.Load(),
		Ops:          w.cOps.Load(),
		Bytes:        w.cBytes.Load(),
		GroupCommits: w.cCommits.Load(),
		Syncs:        w.cSyncs.Load(),
		Rotations:    w.cRotates.Load(),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	st.Segment = w.seg
	st.PendingBytes = uint64(len(w.staged) * opBytes)
	st.Failed = w.err != nil
	st.Closed = w.closed
	return st
}

// Open opens (creating if needed) the WAL in dir and prepares it for
// appending. If the newest segment ends in a torn record — the
// signature of a crash mid-write — the tail is truncated to the last
// intact record so new appends extend a clean log.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, fs: opts.FS, lock: lock}
	w.cond = sync.NewCond(&w.mu)
	if err := w.openForAppend(); err != nil {
		if w.f != nil {
			w.f.Close()
		}
		w.unlockDir()
		return nil, err
	}
	return w, nil
}

// openForAppend positions w at the end of the newest intact record,
// creating the first segment if the directory is fresh.
func (w *WAL) openForAppend() error {
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return w.openSegment(1)
	}
	last := segs[len(segs)-1]
	valid, _, _, err := scanSegment(w.fs, last, true, nil)
	if err != nil {
		return err
	}
	if valid < segHeaderSize {
		// The crash tore the segment's own header; recreate it whole
		// rather than appending records to a headerless file.
		if err := w.fs.Remove(last.path); err != nil {
			return err
		}
		return w.openSegment(last.index)
	}
	f, err := w.fs.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	if fi, err := f.Stat(); err != nil {
		return err
	} else if fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return err
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		return err
	}
	w.seg, w.size = last.index, valid
	if w.size >= w.opts.SegmentBytes {
		return w.rotate()
	}
	return nil
}

// lockDir takes an exclusive flock on dir/LOCK so only one process
// appends to a WAL directory at a time. The kernel drops the lock when
// the process dies, so a SIGKILL never wedges the next boot.
func lockDir(fsys vfs.FS, dir string) (vfs.File, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsys.Flock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

func (w *WAL) unlockDir() {
	if w.lock != nil {
		// Closing the descriptor releases the flock.
		w.lock.Close()
		w.lock = nil
	}
}

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

// FS returns the filesystem the WAL operates on.
func (w *WAL) FS() vfs.FS { return w.fs }

// Segment returns the index of the segment currently appended to. It
// waits out any in-flight group commit: the leader mutates the segment
// state with mu released (only the flushing flag held), so reading
// before the flush settles would race.
func (w *WAL) Segment() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	return w.seg
}

// Err returns the sticky error, if the WAL has failed.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// LogBatch implements sharded.Logger: Stage followed by Commit.
func (w *WAL) LogBatch(b core.Batch) error { return w.AppendBatch(b) }

// Append durably logs one op and returns once it (and, for free, every
// op staged alongside it) is written — the group commit.
func (w *WAL) Append(kind core.OpKind, u, v uint64) error {
	b := [1]core.Op{{Kind: kind, U: u, V: v}}
	return w.AppendBatch(b[:])
}

// AppendBatch durably logs a whole mutation batch: Stage, then Commit.
// Alone in its group the batch becomes one record — one length prefix,
// one CRC32C — even when it has one op; with concurrent appenders the
// group's batches share a record. Either way a batch of at most
// maxBatchOps ops never straddles two records, so replay applies it
// whole or not at all; larger batches are chunked. Replay delivers the
// ops back in order. An empty batch is a no-op.
func (w *WAL) AppendBatch(b core.Batch) error {
	if err := w.Stage(b); err != nil {
		return err
	}
	return w.Commit()
}

// Stage copies b's ops onto the end of the open group and returns: no
// encoding, no checksum, no I/O, so it is safe under a caller's own
// lock, and b is not retained. The ops are durable once a Commit that
// starts after Stage returns has returned nil; ops never committed are
// written by the next Sync, Rotate or Close. Stage fails, staging nothing,
// on a poisoned or closed WAL and on an op that is neither an insert
// nor a delete.
func (w *WAL) Stage(b core.Batch) error {
	if len(b) == 0 {
		return nil
	}
	for _, o := range b {
		if o.Kind != core.OpInsert && o.Kind != core.OpDelete {
			return fmt.Errorf("wal: unloggable op kind %d", o.Kind)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	// A record holds at most maxBatchOps ops. When b would push the
	// group's last record past that, the record is cut before b, so b
	// (unless oversized itself) still lands whole in the next one.
	recStart := 0
	if n := len(w.cuts); n > 0 {
		recStart = w.cuts[n-1]
	}
	if len(w.staged) > recStart && len(w.staged)-recStart+len(b) > maxBatchOps {
		w.cuts = append(w.cuts, len(w.staged))
	}
	w.staged = append(w.staged, b...)
	w.cAppends.Add(1)
	w.cOps.Add(uint64(len(b)))
	return nil
}

// Commit returns once every op staged before the call is durable per
// the sync policy — SyncNone: written; SyncAlways: written and fsynced.
// The first committer to find the file free leads: it takes the whole
// staged group, its own ops and everyone else's, frames and writes it
// outside the lock, and wakes the rest. With nothing uncommitted Commit
// is two atomic loads.
func (w *WAL) Commit() error {
	seq := w.cAppends.Load()
	if w.flushed.Load() >= seq {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushed.Load() < seq {
		if w.err != nil {
			return w.err
		}
		if w.flushing {
			w.cond.Wait()
			continue
		}
		if err := w.flushStaged(true); err != nil {
			return err
		}
	}
	return nil
}

// flushStaged frames and writes the staged group, if any. It requires
// mu held, no leader in flight and a healthy WAL. With unlock set it
// becomes the leader — mu is released for the encode and the I/O, and
// the flushing flag owns the file and the frame buffer meanwhile;
// otherwise mu stays held throughout (the Sync/Rotate/Close path).
// Either way it records the outcome — flushed advanced, or the sticky
// error set — and wakes every waiter.
func (w *WAL) flushStaged(unlock bool) error {
	if len(w.staged) == 0 {
		return nil
	}
	group, cuts, hi := w.staged, w.cuts, w.cAppends.Load()
	w.staged, w.spare, w.cuts = w.spare[:0], nil, nil
	if unlock {
		w.flushing = true
		w.mu.Unlock()
	}
	err := w.writeGroup(group, cuts)
	if unlock {
		w.mu.Lock()
		w.flushing = false
	}
	if cap(group)*opBytes <= retainedBufBytes {
		w.spare = group
	}
	if err != nil {
		w.err = err
	} else {
		w.flushed.Store(hi)
	}
	w.cond.Broadcast()
	return err
}

// writeGroup frames one group — a record per cut, chunked at
// maxBatchOps — into the reused frame buffer and writes it to the
// current segment with one write(2), fsyncs per policy, and rotates if
// the segment is full. Only the leader (flushing set) or a holder of mu
// with flushing clear may call it — either way access to the file and
// the buffer is exclusive.
func (w *WAL) writeGroup(group core.Batch, cuts []int) error {
	buf, records := w.frame[:0], uint64(0)
	for start := 0; start < len(group); {
		end := len(group)
		if len(cuts) > 0 {
			end, cuts = cuts[0], cuts[1:]
		}
		for ; start < end; records++ {
			rec := group[start:min(end, start+maxBatchOps)]
			start += len(rec)
			buf = encodeBatchFrame(buf, rec)
		}
	}
	if cap(buf) <= retainedBufBytes {
		w.frame = buf
	}
	w.cRecords.Add(records)
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append segment %d: %w", w.seg, err)
	}
	w.size += int64(len(buf))
	w.cBytes.Add(uint64(len(buf)))
	w.cCommits.Add(1)
	if w.opts.Sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync segment %d: %w", w.seg, err)
		}
		w.cSyncs.Add(1)
	}
	if w.size >= w.opts.SegmentBytes {
		return w.rotate()
	}
	return nil
}

// rotate closes the current segment (fsyncing it regardless of policy,
// so a sealed segment is always durable) and opens the next.
func (w *WAL) rotate() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: seal segment %d: %w", w.seg, err)
		}
		w.cSyncs.Add(1)
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("wal: seal segment %d: %w", w.seg, err)
		}
		w.f = nil
	}
	w.cRotates.Add(1)
	return w.openSegment(w.seg + 1)
}

// openSegment creates segment index and makes it current.
func (w *WAL) openSegment(index uint64) error {
	path := segmentPath(w.dir, index)
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", index, err)
	}
	hdr := segmentHeader(index)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment %d: %w", index, err)
	}
	if w.opts.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: create segment %d: %w", index, err)
		}
		if err := syncDir(w.fs, w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f, w.seg, w.size = f, index, segHeaderSize
	return nil
}

// exclusive acquires mu with no leader in flight, giving the caller
// sole ownership of the file. Callers must release mu when done.
func (w *WAL) exclusive() error {
	w.mu.Lock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// Sync forces everything appended so far onto disk, regardless of the
// sync policy.
func (w *WAL) Sync() error {
	if err := w.exclusive(); err != nil {
		return err
	}
	defer w.mu.Unlock()
	if err := w.flushStaged(false); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync segment %d: %w", w.seg, err)
		return w.err
	}
	w.cSyncs.Add(1)
	return nil
}

// Rotate seals the current segment and starts a new one, returning the
// new segment's index. It is the checkpoint cut: records appended
// before Rotate land in segments < the returned index, records after
// in segments >= it.
func (w *WAL) Rotate() (uint64, error) {
	if err := w.exclusive(); err != nil {
		return 0, err
	}
	defer w.mu.Unlock()
	if err := w.flushStaged(false); err != nil {
		return 0, err
	}
	if err := w.rotate(); err != nil {
		w.err = err
		return 0, err
	}
	return w.seg, nil
}

// RemoveSegmentsBefore deletes sealed segments with index < seg — the
// log-compaction step after a checkpoint at cut seg. The current
// segment is never removed, and the requested cut is clamped to the
// retention floor: no segment at or above the lowest held Pin is
// deleted, so a log shipper's read position stays servable.
//
// Contract note: the scan and the deletes run with the WAL lock held.
// An earlier version captured the current segment index, released the
// lock, and then deleted — so a concurrent Rotate could advance the
// segment between capture and unlink, and a tail reader could have its
// segment removed out from under it. Holding the lock across the whole
// operation (deletions are rare and cheap next to an fsync) closes
// both races.
func (w *WAL) RemoveSegmentsBefore(seg uint64) error {
	if err := w.exclusive(); err != nil {
		return err
	}
	defer w.mu.Unlock()
	floor := seg
	for p := range w.pins {
		if p.seg < floor {
			floor = p.seg
		}
	}
	segs, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range segs {
		if s.index < floor && s.index != w.seg {
			if err := w.fs.Remove(s.path); err != nil {
				return fmt.Errorf("wal: remove %s: %w", s.path, err)
			}
			removed = true
		}
	}
	if !removed {
		return nil
	}
	return syncDir(w.fs, w.dir)
}

// Close flushes, fsyncs and closes the WAL and releases the directory
// lock. Further appends fail with ErrClosed. The final segment fsync is
// followed by a directory fsync so the sealed tail length survives a
// machine crash. A poisoned WAL writes nothing more: Close still closes
// the segment file and releases the lock, and returns the sticky error.
// A second Close returns nil.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.err
	if err == nil && w.f != nil {
		err = w.flushStaged(false)
		if err == nil {
			if serr := w.f.Sync(); serr != nil {
				err = fmt.Errorf("wal: fsync segment %d: %w", w.seg, serr)
			} else {
				w.cSyncs.Add(1)
			}
		}
	}
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	if err == nil {
		err = syncDir(w.fs, w.dir)
	}
	w.unlockDir()
	return err
}

// encodeBatchFrame appends one framed record holding ops (at least one,
// at most maxBatchOps, every kind checked by Stage) to buf and returns
// it. It is the log's one record writer. The length prefix precedes a
// payload whose length is only known once it is encoded, so the payload
// is encoded behind a worst-case gap and the gap closed afterwards: one
// pass, no scratch buffer.
func encodeBatchFrame(buf []byte, ops core.Batch) []byte {
	const gap = binary.MaxVarintLen64
	head := len(buf)
	var prefix [gap]byte
	buf = append(buf, prefix[:]...)
	buf = append(buf, recBatch)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, o := range ops {
		buf = append(buf, byte(o.Kind))
		buf = binary.AppendUvarint(buf, o.U)
		buf = binary.AppendUvarint(buf, o.V)
	}
	n := len(buf) - head - gap
	pl := len(binary.AppendUvarint(prefix[:0], uint64(n)))
	copy(buf[head:], prefix[:pl])
	copy(buf[head+pl:], buf[head+gap:])
	buf = buf[:head+pl+n]
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[head+pl:], castagnoli))
}

// segmentHeader is the header openSegment writes at the head of segment
// index.
func segmentHeader(index uint64) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], index)
	return hdr
}

// checkHeader compares a header read from disk with segmentHeader(index).
// It returns how many leading bytes agree and, when not all of them do,
// the offset and a description of the first bad field.
func checkHeader(hdr [segHeaderSize]byte, index uint64) (match int, off int64, detail string) {
	want := segmentHeader(index)
	for match < segHeaderSize && hdr[match] == want[match] {
		match++
	}
	switch {
	case match == segHeaderSize:
		return match, 0, ""
	case match < 4:
		return match, 0, "not a WAL segment"
	case match == 4:
		return match, 4, fmt.Sprintf("unsupported WAL version %d", hdr[4])
	}
	return match, 5, fmt.Sprintf("segment claims index %d, file named %d", binary.LittleEndian.Uint64(hdr[5:]), index)
}

func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, index, segSuffix))
}

// numberedFile is a file named <prefix><index><suffix>: a segment or a
// checkpoint.
type numberedFile struct {
	path  string
	index uint64
}

// listNumbered returns dir's files named prefix, decimal index, suffix,
// sorted by index.
func listNumbered(fsys vfs.FS, dir, prefix, suffix string) ([]numberedFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []numberedFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64); err == nil {
			files = append(files, numberedFile{path: filepath.Join(dir, name), index: idx})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].index < files[j].index })
	return files, nil
}

// listSegments returns the directory's segment files sorted by index.
func listSegments(fsys vfs.FS, dir string) ([]numberedFile, error) {
	return listNumbered(fsys, dir, segPrefix, segSuffix)
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot format: a small header (magic, version, variant, edge count)
// followed by fixed-width little-endian edge records. The format is the
// basis of the WAL checkpoint files, the replication bootstrap and the
// public Save/Load API.
const (
	snapMagic   = 0x43474752 // "CGGR"
	snapVersion = 1

	variantBasic    = 1
	variantWeighted = 2
)

// WriteBasicSnapshot writes a basic-variant snapshot holding edges
// edge records; iter must call emit exactly once per edge. The sharded
// engine shares this writer so its snapshots are byte-compatible with
// single-shard ones regardless of shard count.
func WriteBasicSnapshot(w io.Writer, edges uint64, iter func(emit func(u, v uint64) error) error) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, variantBasic, edges); err != nil {
		return err
	}
	// One per snapshot: declared per edge it escapes through bw and allocates.
	var rec [16]byte
	if err := iter(func(u, v uint64) error {
		binary.LittleEndian.PutUint64(rec[0:], u)
		binary.LittleEndian.PutUint64(rec[8:], v)
		_, err := bw.Write(rec[:])
		return err
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// BasicSnapshotSize is the byte length of what WriteBasicSnapshot writes
// for edges edge records, so a writer can frame a snapshot it has not
// serialised yet.
func BasicSnapshotSize(edges uint64) int64 {
	return SnapshotHeaderSize + 16*int64(edges)
}

// BasicSnapshotEdges reads a basic-variant snapshot's header from r —
// SnapshotHeaderSize bytes, checked as ReadBasicSnapshot checks them —
// and returns the edge count it announces.
func BasicSnapshotEdges(r io.Reader) (uint64, error) {
	return readHeader(r, variantBasic)
}

// ReadBasicSnapshot streams the edges of a basic-variant snapshot to fn.
// Damaged input surfaces as a *CorruptError (matching ErrCorrupt) whose
// Offset is the byte position of the first bad byte.
func ReadBasicSnapshot(r io.Reader, fn func(u, v uint64) error) error {
	br := bufio.NewReader(r)
	n, err := readHeader(br, variantBasic)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		u, v, err := readEdge(br)
		if err != nil {
			return &CorruptError{
				Source: "snapshot",
				Offset: SnapshotHeaderSize + int64(i)*16,
				Detail: fmt.Sprintf("edge %d/%d truncated", i, n),
				Err:    err,
			}
		}
		if err := fn(u, v); err != nil {
			return err
		}
	}
	return nil
}

// Save writes every edge of the basic graph to w.
func (g *Graph) Save(w io.Writer) error {
	return WriteBasicSnapshot(w, g.NumEdges(), func(emit func(u, v uint64) error) error {
		var err error
		g.ForEachNode(func(u uint64) bool {
			g.ForEachSuccessor(u, func(v uint64) bool {
				err = emit(u, v)
				return err == nil
			})
			return err == nil
		})
		return err
	})
}

// LoadGraph reads a snapshot written by Save into a fresh graph with
// the given configuration.
func LoadGraph(r io.Reader, cfg Config) (*Graph, error) {
	g := NewGraph(cfg)
	if err := ReadBasicSnapshot(r, func(u, v uint64) error {
		g.InsertEdge(u, v)
		return nil
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// Save writes every edge of the weighted graph, with weights, to w.
func (w *Weighted) Save(dst io.Writer) error {
	bw := bufio.NewWriter(dst)
	if err := writeHeader(bw, variantWeighted, w.NumEdges()); err != nil {
		return err
	}
	var err error
	w.ForEachNode(func(u uint64) bool {
		w.ForEachSuccessor(u, func(v, weight uint64) bool {
			err = writeU64s(bw, u, v, weight)
			return err == nil
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// LoadWeighted reads a snapshot written by Weighted.Save.
func LoadWeighted(r io.Reader, cfg Config) (*Weighted, error) {
	br := bufio.NewReader(r)
	n, err := readHeader(br, variantWeighted)
	if err != nil {
		return nil, err
	}
	w := NewWeighted(cfg)
	for i := uint64(0); i < n; i++ {
		u, v, err := readEdge(br)
		if err != nil {
			return nil, &CorruptError{
				Source: "snapshot",
				Offset: SnapshotHeaderSize + int64(i)*24,
				Detail: fmt.Sprintf("edge %d/%d truncated", i, n),
				Err:    err,
			}
		}
		var weight uint64
		if err := binary.Read(br, binary.LittleEndian, &weight); err != nil {
			return nil, &CorruptError{
				Source: "snapshot",
				Offset: SnapshotHeaderSize + int64(i)*24 + 16,
				Detail: fmt.Sprintf("weight %d/%d truncated", i, n),
				Err:    err,
			}
		}
		w.Add(u, v, weight)
	}
	return w, nil
}

// SnapshotHeaderSize is the byte length of the snapshot header: magic
// (4), version (1), variant (1), edge count (8).
const SnapshotHeaderSize = 14

func writeHeader(w io.Writer, variant byte, edges uint64) error {
	var hdr [SnapshotHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapMagic)
	hdr[4] = snapVersion
	hdr[5] = variant
	binary.LittleEndian.PutUint64(hdr[6:], edges)
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader, wantVariant byte) (uint64, error) {
	var hdr [SnapshotHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, &CorruptError{Source: "snapshot", Offset: 0, Detail: "header truncated", Err: err}
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != snapMagic {
		return 0, &CorruptError{Source: "snapshot", Offset: 0, Detail: "not a CuckooGraph snapshot"}
	}
	if hdr[4] != snapVersion {
		return 0, &CorruptError{Source: "snapshot", Offset: 4, Detail: fmt.Sprintf("unsupported snapshot version %d", hdr[4])}
	}
	if hdr[5] != wantVariant {
		return 0, &CorruptError{Source: "snapshot", Offset: 5, Detail: fmt.Sprintf("snapshot variant %d, want %d", hdr[5], wantVariant)}
	}
	return binary.LittleEndian.Uint64(hdr[6:]), nil
}

func writeU64s(w io.Writer, vals ...uint64) error {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func readEdge(r io.Reader) (u, v uint64, err error) {
	var buf [16]byte
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:]), nil
}

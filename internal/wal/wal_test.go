package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cuckoograph/internal/core"
	"cuckoograph/internal/sharded"
	"cuckoograph/internal/vfs"
)

// testCfg pins the shard count so replayed graphs are structurally
// identical to the originals regardless of GOMAXPROCS.
func testCfg() sharded.Config { return sharded.Config{Shards: 8} }

// rng is a tiny splitmix64 so tests are deterministic without seeding
// math/rand.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

type edge struct{ u, v uint64 }

func randomEdges(n int, nodes uint64, seed uint64) []edge {
	r := rng(seed)
	out := make([]edge, n)
	for i := range out {
		out[i] = edge{r.next() % nodes, r.next() % nodes}
	}
	return out
}

func edgeSet(g *sharded.Graph) map[edge]bool {
	set := map[edge]bool{}
	g.ForEachNode(func(u uint64) bool {
		g.ForEachSuccessor(u, func(v uint64) bool {
			set[edge{u, v}] = true
			return true
		})
		return true
	})
	return set
}

// requireSameGraph asserts got replays to the same edge set and the
// same structural Stats as want — the "identical Stats()/edge set"
// acceptance bar.
func requireSameGraph(t *testing.T, want, got *sharded.Graph) {
	t.Helper()
	if w, g := want.Stats(), got.Stats(); !reflect.DeepEqual(w, g) {
		t.Fatalf("stats diverge:\nwant %+v\ngot  %+v", w, g)
	}
	if w, g := edgeSet(want), edgeSet(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("edge sets diverge: want %d edges, got %d", len(w), len(g))
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	want := []core.Op{
		{Kind: core.OpInsert, U: 1, V: 2}, {Kind: core.OpInsert, U: 1, V: 3}, {Kind: core.OpDelete, U: 1, V: 2},
		{Kind: core.OpInsert, U: 0, V: 0}, {Kind: core.OpInsert, U: ^uint64(0), V: 1 << 40},
	}
	for _, r := range want {
		if err := w.LogBatch(core.Batch{{Kind: r.Kind, U: r.U, V: r.V}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var got []core.Op
	stats, err := Replay(dir, 0, func(o core.Op) error {
		got = append(got, o)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("records diverge:\nwant %v\ngot  %v", want, got)
	}
	if stats.Records != uint64(len(want)) || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want %d records and no torn bytes", stats, len(want))
	}
}

func TestReopenContinuesLog(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w = mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var n uint64
	stats, err := Replay(dir, 0, func(core.Op) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || stats.Records != 2 {
		t.Fatalf("replayed %d records (stats %+v), want 2", n, stats)
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 256})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 10 {
		t.Fatalf("expected many segments at 256B threshold, got %d", len(segs))
	}
	var i uint64
	stats, err := Replay(dir, 0, func(o core.Op) error {
		if o != core.InsertOp(i, i+1) {
			t.Fatalf("record %d = %+v", i, o)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n || stats.Segments != len(segs) {
		t.Fatalf("stats = %+v, want %d records over %d segments", stats, n, len(segs))
	}
}

func TestConcurrentGroupCommitReplaysDeterministically(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 64 << 10})
	cfg := testCfg()
	cfg.WAL = w
	g := sharded.New(cfg)

	edges := randomEdges(20_000, 2_000, 7)
	var wg sync.WaitGroup
	const writers = 8
	chunk := len(edges) / writers
	for p := 0; p < writers; p++ {
		part := edges[p*chunk : (p+1)*chunk]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range part {
				g.InsertEdge(e.u, e.v)
				if i%7 == 0 {
					g.DeleteEdge(e.u, e.v)
				}
			}
		}()
	}
	wg.Wait()
	if err := g.LogErr(); err != nil {
		t.Fatalf("LogErr: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Replay.Records == 0 || stats.Replay.TornBytes != 0 {
		t.Fatalf("unexpected replay stats %+v", stats.Replay)
	}
	requireSameGraph(t, g, got)
}

func TestCheckpointThenReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 32 << 10})
	cfg := testCfg()
	cfg.WAL = w
	g := sharded.New(cfg)

	edges := randomEdges(30_000, 3_000, 11)
	for _, e := range edges[:len(edges)/2] {
		g.InsertEdge(e.u, e.v)
	}
	path, err := Checkpoint(g, w)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	for i, e := range edges[len(edges)/2:] {
		g.InsertEdge(e.u, e.v)
		if i%5 == 0 {
			g.DeleteEdge(e.u, e.v)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Snapshot != path {
		t.Fatalf("recovered from %q, want checkpoint %q", stats.Snapshot, path)
	}
	// The snapshot re-orders edges, so kick/transformation counters may
	// legitimately differ from the continuously-built graph; the edge
	// set and logical sizes must not.
	if w, gs := edgeSet(g), edgeSet(got); !reflect.DeepEqual(w, gs) {
		t.Fatalf("edge sets diverge: want %d, got %d", len(w), len(gs))
	}
	if g.NumEdges() != got.NumEdges() || g.NumNodes() != got.NumNodes() {
		t.Fatalf("counts diverge: want %d/%d, got %d/%d",
			g.NumEdges(), g.NumNodes(), got.NumEdges(), got.NumNodes())
	}
}

func TestCheckpointTruncatesSegmentsAndOldCheckpoints(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 1 << 10})
	cfg := testCfg()
	cfg.WAL = w
	g := sharded.New(cfg)
	for _, e := range randomEdges(2_000, 500, 3) {
		g.InsertEdge(e.u, e.v)
	}
	first, err := Checkpoint(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomEdges(2_000, 500, 4) {
		g.InsertEdge(e.u, e.v)
	}
	second, err := Checkpoint(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("first checkpoint %s should be compacted away, stat err=%v", first, err)
	}
	segs, err := listSegments(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := segIndexOf(second)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.index < cut {
			t.Fatalf("segment %d survived checkpoint cut %d", s.index, cut)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Recover(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edgeSet(g), edgeSet(got)) {
		t.Fatal("edge sets diverge after compaction")
	}
}

// segIndexOf recovers the cut segment from a checkpoint file name.
func segIndexOf(path string) (uint64, error) {
	name := filepath.Base(path)
	name = strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
	return strconv.ParseUint(name, 10, 64)
}

func TestCorruptionMidLogIsTyped(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone, SegmentBytes: 512})
	for i := uint64(0); i < 500; i++ {
		if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: i, V: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	// Flip a payload byte in a middle segment: unlike a torn tail this
	// must be reported, not skipped.
	victim := segs[1].path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+5] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, func(core.Op) error { return nil })
	if !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *core.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *core.CorruptError", err)
	}
	if ce.Offset < segHeaderSize {
		t.Fatalf("corruption offset %d points into the header", ce.Offset)
	}
	if ce.Source != filepath.Base(victim) {
		t.Fatalf("corruption source %q, want %q", ce.Source, filepath.Base(victim))
	}
}

// TestCloseWritesStagedOps: ops staged and never committed are written
// by Close, and Replay returns every one of them.
func TestCloseWritesStagedOps(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		if err := w.Stage(core.Batch{{Kind: core.OpInsert, U: i, V: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n {
		t.Fatalf("replayed %d records, want %d", stats.Records, n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: 1, V: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestParseSyncPolicy: the names -wal-sync accepts, and
// String's round trip through them.
func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncAlways, true},
		{"always", SyncAlways, true},
		{"ALWAYS", SyncAlways, true},
		{"nosync", SyncNone, true},
		{"async", 0, false},
		{"everysec", 0, false},
		{"no sync", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "always|nosync)") {
				t.Errorf("ParseSyncPolicy(%q) = %v, %v; want an error naming always|nosync", tc.in, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			continue
		}
		if back, err := ParseSyncPolicy(got.String()); err != nil || back != got {
			t.Errorf("ParseSyncPolicy(%q.String() = %q) = %v, %v", tc.in, got.String(), back, err)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	w, err := Open(b.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.RunParallel(func(pb *testing.PB) {
		r := rng(1)
		for pb.Next() {
			if err := w.LogBatch(core.Batch{{Kind: core.OpInsert, U: r.next() % 1000, V: r.next() % 1000}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

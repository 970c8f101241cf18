package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cuckoograph/internal/hashutil"
)

func TestGraphSaveLoadRoundTrip(t *testing.T) {
	g := NewGraph(Config{})
	rng := hashutil.NewRNG(5)
	type pair struct{ u, v uint64 }
	want := map[pair]bool{}
	for i := 0; i < 5000; i++ {
		p := pair{rng.Uint64n(400), rng.Uint64n(400)}
		g.InsertEdge(p.u, p.v)
		want[p] = true
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != uint64(len(want)) {
		t.Fatalf("loaded %d edges, want %d", g2.NumEdges(), len(want))
	}
	for p := range want {
		if !g2.HasEdge(p.u, p.v) {
			t.Fatalf("edge %v lost across save/load", p)
		}
	}
}

func TestWeightedSaveLoadRoundTrip(t *testing.T) {
	w := NewWeighted(Config{})
	for i := uint64(1); i <= 300; i++ {
		w.Add(i%20, i, i) // weight i
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := LoadWeighted(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumEdges() != w.NumEdges() {
		t.Fatalf("edges %d, want %d", w2.NumEdges(), w.NumEdges())
	}
	for i := uint64(1); i <= 300; i++ {
		got, ok := w2.Weight(i%20, i)
		if !ok || got != i {
			t.Fatalf("weight(%d,%d) = %d,%v; want %d", i%20, i, got, ok, i)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	g := NewGraph(Config{})
	g.InsertEdge(1, 2)
	var buf bytes.Buffer
	g.Save(&buf)
	data := buf.Bytes()

	// Truncated body.
	if _, err := LoadGraph(bytes.NewReader(data[:len(data)-4]), Config{}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := LoadGraph(bytes.NewReader(bad), Config{}); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Wrong variant (weighted loader on basic snapshot).
	if _, err := LoadWeighted(bytes.NewReader(data), Config{}); err == nil {
		t.Fatal("variant mismatch accepted")
	}
	// Bad version.
	bad = append([]byte(nil), data...)
	bad[4] = 99
	if _, err := LoadGraph(bytes.NewReader(bad), Config{}); err == nil {
		t.Fatal("bad version accepted")
	}
	// Empty input.
	if _, err := LoadGraph(bytes.NewReader(nil), Config{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSaveEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := NewGraph(Config{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

// TestSaveLoadSurvivesDenylistOccupancy saves a graph whose denylists
// are non-empty; the snapshot walks ForEachNode/ForEachSuccessor so
// parked items must be included.
func TestSaveLoadSurvivesDenylistOccupancy(t *testing.T) {
	g := NewGraph(Config{MaxKicks: 2, LCHTBase: 2, SCHTBase: 2, D: 1, LDLCap: 16, SDLCap: 16})
	rng := hashutil.NewRNG(3)
	type pair struct{ u, v uint64 }
	want := map[pair]bool{}
	for i := 0; i < 1000; i++ {
		p := pair{rng.Uint64n(100), rng.Uint64n(100)}
		g.InsertEdge(p.u, p.v)
		want[p] = true
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for p := range want {
		if !g2.HasEdge(p.u, p.v) {
			t.Fatalf("edge %v (possibly denylisted) lost", p)
		}
	}
}

// TestCorruptionIsTyped pins the error contract the WAL and sharded
// restore paths assert on: snapshot damage matches ErrCorrupt and
// carries the offset of the first bad byte.
func TestCorruptionIsTyped(t *testing.T) {
	g := NewGraph(Config{})
	for i := uint64(0); i < 10; i++ {
		g.InsertEdge(i, i+1)
	}
	var buf bytes.Buffer
	g.Save(&buf)
	data := buf.Bytes()

	_, err := LoadGraph(bytes.NewReader(data[:len(data)-4]), Config{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated snapshot: err = %v, want *CorruptError", err)
	}
	// The torn edge is the last one: header + 9 intact 16-byte records.
	if want := int64(14 + 9*16); ce.Offset != want {
		t.Fatalf("offset = %d, want %d", ce.Offset, want)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("underlying cause lost: %v", err)
	}
}

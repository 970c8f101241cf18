package cuckoo

import (
	"fmt"
	"slices"
	"testing"

	"cuckoograph/internal/hashutil"
)

// rowFor is the row the tests below store under key: every element
// carries the key and its own position, so a row that lost an element,
// took one from a neighbour or was left behind by its key shows.
func rowFor(key uint64, width int) []uint64 {
	row := make([]uint64, width)
	for j := range row {
		row[j] = key<<8 | uint64(j)
	}
	return row
}

// rowModel drives a chain of rows the way core drives the L-CHT: the
// cells the chain could not home wait in a denylist and go back in after
// a transformation.
type rowModel struct {
	t      *testing.T
	c      *Chain[uint64]
	width  int
	stored map[uint64]bool // keys in the chain or the denylist
	denied map[uint64]bool // … those in the denylist
	spills int
}

// take files leftovers — one entry per row element — in the denylist,
// checking that each cell came back whole.
func (m *rowModel) take(leftovers []Entry[uint64]) {
	m.t.Helper()
	if len(leftovers)%m.width != 0 {
		m.t.Fatalf("%d leftover entries from a chain of width %d", len(leftovers), m.width)
	}
	for ; len(leftovers) != 0; leftovers = leftovers[m.width:] {
		key := leftovers[0].Key
		if !m.stored[key] || m.denied[key] {
			m.t.Fatalf("leftover key %d: stored %v, already denied %v", key, m.stored[key], m.denied[key])
		}
		for j, want := range rowFor(key, m.width) {
			if leftovers[j].Key != key || leftovers[j].Val != want {
				m.t.Fatalf("leftover of key %d, element %d: %+v, want val %#x", key, j, leftovers[j], want)
			}
		}
		m.denied[key] = true
		m.spills++
	}
}

func (m *rowModel) insert(key uint64) {
	leftovers, grew := m.c.InsertRow(key, rowFor(key, m.width))
	m.stored[key] = true
	m.take(leftovers)
	if grew {
		m.drain()
	}
}

func (m *rowModel) delete(key uint64) {
	delete(m.stored, key)
	if m.denied[key] {
		delete(m.denied, key)
		return
	}
	leftovers, ok := m.c.Delete(key)
	if !ok {
		m.t.Fatalf("stored key %d not found by Delete", key)
	}
	m.take(leftovers)
}

// drain re-inserts the denylist after a growth.
func (m *rowModel) drain() {
	pending := sortedKeys(m.denied)
	m.denied = map[uint64]bool{}
	for _, key := range pending {
		leftovers, _ := m.c.InsertRow(key, rowFor(key, m.width))
		m.take(leftovers)
	}
}

// sortedKeys lists a set in ascending order, so that a run replays.
func sortedKeys(set map[uint64]bool) []uint64 {
	keys := make([]uint64, 0, len(set))
	for key := range set {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// check verifies every stored row, in place and through the iterator.
func (m *rowModel) check() {
	m.t.Helper()
	if m.c.Size() != len(m.stored)-len(m.denied) {
		m.t.Fatalf("Size() = %d, model has %d stored − %d denied", m.c.Size(), len(m.stored), len(m.denied))
	}
	for key := range m.stored {
		p := m.c.FindHashed(hashutil.Key64(key), key)
		if p.Found() == m.denied[key] || p.Found() != (m.c.RowHashed(hashutil.Key64(key), key) != nil) {
			m.t.Fatalf("key %d: found %v, denied %v", key, p.Found(), m.denied[key])
		}
		if !p.Found() {
			continue
		}
		row := m.c.RowHashed(hashutil.Key64(key), key)
		if len(row) != m.width || cap(row) != m.width || &row[0] != m.c.At(p) {
			m.t.Fatalf("key %d: RowHashed has len %d cap %d (width %d), At points at its head: %v", key, len(row), cap(row), m.width, &row[0] == m.c.At(p))
		}
		for j, want := range rowFor(key, m.width) {
			if row[j] != want {
				m.t.Fatalf("key %d: row %#x, element %d is not its own", key, row, j)
			}
		}
	}
	seen := 0
	m.c.ForEachRef(func(key uint64, head *uint64) bool {
		seen++
		if *head != key<<8 {
			m.t.Fatalf("iterator: key %d with head %#x", key, *head)
		}
		return true
	})
	if seen != m.c.Size() {
		m.t.Fatalf("iterator visited %d cells, Size() = %d", seen, m.c.Size())
	}
}

// TestRowsTravelWithTheirKeys is the property the L-CHT rests on: in a
// chain of payload width k every row stays whole and with its key
// through kick loops, Table II merges, contractions and the leftovers of
// each, checked after every operation; and a deleted cell leaves zeros.
func TestRowsTravelWithTheirKeys(t *testing.T) {
	for _, width := range []int{1, 2, 7} {
		for _, cfg := range []Config{{Seed: 3}, {D: 2, MaxKicks: 2, Seed: 5}, {D: 1, MaxKicks: 1, R: 1, Seed: 7}, {D: 11, MaxKicks: 8, R: 4, Seed: 9}} {
			t.Run(fmt.Sprintf("width=%d/D=%d/R=%d", width, cfg.D, cfg.R), func(t *testing.T) {
				m := &rowModel{t: t, c: NewRowChain[uint64](2, width, cfg), width: width,
					stored: map[uint64]bool{}, denied: map[uint64]bool{}}
				rng := hashutil.NewRNG(cfg.Seed)
				for i := 0; i < 4000; i++ {
					key := 1 + rng.Uint64n(400)
					grow := i/500%2 == 0 // stretches of growth and of contraction
					switch {
					case m.stored[key] && (!grow || rng.Intn(4) == 0):
						m.delete(key)
					case !m.stored[key] && (grow || rng.Intn(4) == 0):
						m.insert(key)
					}
					m.check()
				}
				t.Logf("%d transformations, %d kicks, %d cells spilled, lengths %v", m.c.Transformations(), m.c.Kicks(), m.spills, m.c.Lengths())
				if m.c.Transformations() < 8 || m.c.Kicks() == 0 {
					t.Fatal("the run transformed or kicked too little to show anything")
				}
				for _, key := range sortedKeys(m.stored) {
					m.delete(key)
				}
				m.check()
				for i := 0; i < m.c.Tables(); i++ {
					for j, v := range m.c.payloads(m.c.tab(i)) {
						if v != 0 {
							t.Fatalf("table %d, payload element %d is %#x after every key was deleted", i, j, v)
						}
					}
				}
			})
		}
	}
}

// TestWidthDoesNotMoveACell: the payload width changes what a cell
// carries and nothing about where it goes — the same keys through a
// chain of width 1 and one of width 5 land in the same cells, after the
// same kicks, in tables of the same lengths, with the same leftovers.
func TestWidthDoesNotMoveACell(t *testing.T) {
	cfg := Config{D: 2, MaxKicks: 3, Seed: 11}
	one, five := NewChain[uint64](2, cfg), NewRowChain[uint64](2, 5, cfg)
	rng := hashutil.NewRNG(11)
	stored := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		key := 1 + rng.Uint64n(300)
		var lo1, lo5 []Entry[uint64]
		if stored[key] && i/400%2 == 1 {
			delete(stored, key)
			lo1, _ = one.Delete(key)
			lo5, _ = five.Delete(key)
		} else if !stored[key] {
			stored[key] = true
			lo1, _ = one.Insert(key, key<<8)
			lo5, _ = five.InsertRow(key, rowFor(key, 5))
		}
		if len(lo5) != 5*len(lo1) {
			t.Fatalf("op %d: %d leftovers at width 1, %d entries at width 5", i, len(lo1), len(lo5))
		}
		for j, lo := range lo1 {
			if lo5[5*j].Key != lo.Key {
				t.Fatalf("op %d: leftover %d is key %d at width 1, %d at width 5", i, j, lo.Key, lo5[5*j].Key)
			}
			delete(stored, lo.Key) // homeless on both sides: out of the comparison
		}
		for key := range stored {
			h := hashutil.Key64(key)
			if p1, p5 := one.FindHashed(h, key), five.FindHashed(h, key); p1 != p5 {
				t.Fatalf("op %d: key %d sits at %#x at width 1, %#x at width 5", i, key, p1, p5)
			}
		}
	}
	if one.Kicks() != five.Kicks() || one.Placements() != five.Placements() ||
		one.Transformations() != five.Transformations() || fmt.Sprint(one.Lengths()) != fmt.Sprint(five.Lengths()) {
		t.Fatalf("width 1: %d kicks, %d placements, %d transformations, lengths %v; width 5: %d, %d, %d, %v",
			one.Kicks(), one.Placements(), one.Transformations(), one.Lengths(),
			five.Kicks(), five.Placements(), five.Transformations(), five.Lengths())
	}
	if one.Kicks() == 0 || one.Transformations() < 8 {
		t.Fatalf("only %d kicks and %d transformations: nothing was compared", one.Kicks(), one.Transformations())
	}
}

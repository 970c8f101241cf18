package cuckoo

import (
	"testing"
	"testing/quick"

	"cuckoograph/internal/hashutil"
)

// oneTable drives the single table of a fresh chain directly — no
// growth, no contraction — through the per-table operations the chain's
// own methods are built from.
type oneTable[P any] struct{ c *Chain[P] }

func newOneTable[P any](length int, cfg Config) oneTable[P] {
	return oneTable[P]{NewChain[P](length, cfg)}
}

func (t oneTable[P]) Insert(key uint64, val P) (Entry[P], bool) {
	row := [1]P{val}
	lo, ok := t.c.insertIn(&t.c.first, hashutil.Key64(key), key, row[:], int(t.c.f.maxKicks))
	if ok {
		return Entry[P]{}, true
	}
	return Entry[P]{Key: lo, Val: row[0]}, false
}

func (t oneTable[P]) find(key uint64) int {
	return t.c.findIn(&t.c.first, hashutil.Key64(key), key)
}

func (t oneTable[P]) Ref(key uint64) *P {
	if i := t.find(key); i >= 0 {
		return &t.c.payloads(&t.c.first)[i]
	}
	return nil
}

func (t oneTable[P]) Lookup(key uint64) (val P, ok bool) {
	if p := t.Ref(key); p != nil {
		return *p, true
	}
	return val, false
}

func (t oneTable[P]) Contains(key uint64) bool { return t.find(key) >= 0 }

func (t oneTable[P]) Delete(key uint64) bool {
	i := t.find(key)
	if i >= 0 {
		t.c.clearIn(&t.c.first, i)
	}
	return i >= 0
}

func (t oneTable[P]) Size() int         { return int(t.c.first.size) }
func (t oneTable[P]) Cells() int        { return t.c.cellsOf(&t.c.first) }
func (t oneTable[P]) LoadRate() float64 { return float64(t.Size()) / float64(t.Cells()) }

func TestTableInsertLookup(t *testing.T) {
	tb := newOneTable[uint64](64, Config{})
	for i := uint64(1); i <= 100; i++ {
		if _, ok := tb.Insert(i, i*10); !ok {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tb.Size() != 100 {
		t.Fatalf("size = %d, want 100", tb.Size())
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := tb.Lookup(i)
		if !ok || v != i*10 {
			t.Fatalf("lookup %d = %d,%v; want %d,true", i, v, ok, i*10)
		}
	}
	if tb.Contains(1000) {
		t.Fatal("Contains(1000) = true for absent key")
	}
}

func TestTableZeroKey(t *testing.T) {
	// Node id 0 must be a legal key; occupancy is tracked separately.
	tb := newOneTable[uint64](8, Config{})
	if _, ok := tb.Insert(0, 42); !ok {
		t.Fatal("insert key 0 failed")
	}
	v, ok := tb.Lookup(0)
	if !ok || v != 42 {
		t.Fatalf("lookup 0 = %d,%v; want 42,true", v, ok)
	}
	if !tb.Delete(0) {
		t.Fatal("delete key 0 failed")
	}
	if tb.Contains(0) {
		t.Fatal("key 0 still present after delete")
	}
}

func TestTableDelete(t *testing.T) {
	tb := newOneTable[int](32, Config{})
	for i := uint64(1); i <= 50; i++ {
		tb.Insert(i, int(i))
	}
	for i := uint64(1); i <= 50; i += 2 {
		if !tb.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tb.Size() != 25 {
		t.Fatalf("size = %d, want 25", tb.Size())
	}
	for i := uint64(1); i <= 50; i++ {
		want := i%2 == 0
		if got := tb.Contains(i); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	if tb.Delete(999) {
		t.Fatal("delete of absent key reported true")
	}
}

func TestTableRef(t *testing.T) {
	tb := newOneTable[uint64](8, Config{})
	tb.Insert(7, 1)
	p := tb.Ref(7)
	if p == nil {
		t.Fatal("Ref(7) = nil")
	}
	*p = 99
	if v, _ := tb.Lookup(7); v != 99 {
		t.Fatalf("after Ref mutation, lookup = %d, want 99", v)
	}
	if tb.Ref(8) != nil {
		t.Fatal("Ref of absent key not nil")
	}
}

func TestTableKicksAndFailure(t *testing.T) {
	// A tiny table with a tiny kick budget must eventually fail and hand
	// back a leftover entry rather than loop forever or drop data.
	tb := newOneTable[uint64](2, Config{D: 1, MaxKicks: 4})
	inserted := map[uint64]uint64{}
	var leftovers []Entry[uint64]
	for i := uint64(1); i <= 50; i++ {
		if lo, ok := tb.Insert(i, i); ok {
			inserted[i] = i
		} else {
			leftovers = append(leftovers, lo)
			delete(inserted, lo.Key) // leftover may be a kicked resident
			if lo.Key != i {
				inserted[i] = i // the new item settled; a resident lost
			}
		}
	}
	if len(leftovers) == 0 {
		t.Fatal("expected at least one insertion failure in a 3-cell table")
	}
	// Conservation: every key is either in the table or was reported.
	total := tb.Size() + len(leftovers)
	if total != 50 {
		t.Fatalf("size %d + leftovers %d = %d, want 50", tb.Size(), len(leftovers), total)
	}
	for k := range inserted {
		if !tb.Contains(k) {
			t.Fatalf("tracked key %d missing from table", k)
		}
	}
}

func TestTableLoadRateReaches(t *testing.T) {
	// With d=8 and the 2:1 ratio, a cuckoo table should comfortably reach
	// a 90% load rate (the paper sets G=0.9).
	tb := newOneTable[struct{}](128, Config{})
	target := int(float64(tb.Cells()) * 0.9)
	for i := 0; i < target; i++ {
		if _, ok := tb.Insert(uint64(i+1), struct{}{}); !ok {
			t.Fatalf("insert failed at %d/%d (LR %.3f)", i, target, tb.LoadRate())
		}
	}
	if lr := tb.LoadRate(); lr < 0.89 {
		t.Fatalf("load rate %.3f, want ≥ 0.9", lr)
	}
}

func TestTableForEach(t *testing.T) {
	tb := newOneTable[uint64](16, Config{})
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 30; i++ {
		tb.Insert(i, i*i)
		want[i] = i * i
	}
	got := map[uint64]uint64{}
	tb.c.ForEachRef(func(k uint64, v *uint64) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach got[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	n := 0
	tb.c.ForEachRef(func(uint64, *uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("ForEach early stop visited %d, want 5", n)
	}
}

// TestTableMinimumLength pins the lengths a table can have: 1, the
// 1+1-bucket table a base-2 chain opens with, or even. A family's base
// is even and at least 2, and only base 2 opens below it.
func TestTableMinimumLength(t *testing.T) {
	for _, c := range []struct{ base, opens int }{{0, 1}, {1, 1}, {2, 1}, {3, 4}, {4, 4}, {8, 8}} {
		ch := NewChain[uint64](c.base, Config{})
		if got := ch.first.length(); got != c.opens || int(ch.f.base) < 2 || ch.f.base%2 != 0 {
			t.Fatalf("base %d: opens at length %d (family base %d), want %d", c.base, got, ch.f.base, c.opens)
		}
	}
	if got := NewChain[uint64](2, Config{}).Cells(); got != 16 {
		t.Fatalf("a base-2 chain opens with %d cells, want 16 (one bucket of 8 per array)", got)
	}
}

func TestTableMemoryBytes(t *testing.T) {
	tb := newOneTable[uint64](16, Config{D: 4})
	// 16 + 8 buckets, 4 cells each, 8 key + 8 payload + 1 occ per cell.
	want := uint64((16+8)*4)*(8+8+1) + 64
	if got := tb.c.memoryBytes(&tb.c.first, 8); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestTableQuickSetSemantics drives the table against a map model with
// random operations.
func TestTableQuickSetSemantics(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		tb := newOneTable[uint64](256, Config{Seed: seed | 1})
		model := map[uint64]uint64{}
		rng := hashutil.NewRNG(seed | 1)
		for _, op := range ops {
			key := uint64(op%97) + 1
			switch rng.Intn(3) {
			case 0:
				if _, dup := model[key]; !dup {
					if _, ok := tb.Insert(key, key*3); ok {
						model[key] = key * 3
					}
				}
			case 1:
				if tb.Delete(key) != (model[key] != 0) {
					return false
				}
				delete(model, key)
			default:
				v, ok := tb.Lookup(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
		}
		return tb.Size() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package cuckoo

import (
	"testing"
	"testing/quick"

	"cuckoograph/internal/hashutil"
)

// refZeroBytes is the obvious per-byte reference for the SWAR helper.
func refZeroBytes(x uint64) uint64 {
	var m uint64
	for lane := 0; lane < 8; lane++ {
		if byte(x>>(lane*8)) == 0 {
			m |= 0x80 << (lane * 8)
		}
	}
	return m
}

func TestZeroBytesExact(t *testing.T) {
	// The borrow-propagation trap cases: a 0x01 (and 0x80) byte directly
	// above a zero byte must NOT be reported as zero.
	cases := []uint64{
		0, ^uint64(0),
		0x0100, 0x01000100, 0x8000, 0x0180008000010001,
		0x0101010101010101, 0x8080808080808080,
		0x00FF00FF00FF00FF, 0xFF00FF00FF00FF00,
	}
	for _, x := range cases {
		if got, want := zeroBytes(x), refZeroBytes(x); got != want {
			t.Fatalf("zeroBytes(%#x) = %#x, want %#x", x, got, want)
		}
	}
	f := func(x uint64) bool { return zeroBytes(x) == refZeroBytes(x) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestTagOfNeverZero(t *testing.T) {
	f := func(h uint64) bool { return tagOf(h) != 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if tagOf(0) == 0 || tagOf(0x00FFFFFFFFFFFFFF) == 0 {
		t.Fatal("tagOf maps a zero top byte to the empty marker")
	}
}

// slowFind is the straightforward full-key scan the tag-indexed probe
// must agree with: walk every cell of every bucket, match on occupancy
// (tag != 0) and the stored key.
func slowFind[P any](c *Chain[P], t *table[P], key uint64) int {
	cells, d := c.words(t), int(c.f.d)
	for b := 0; b < t.buckets(); b++ {
		for i := 0; i < d; i++ {
			if c.tagAt(cells, b, i) != 0 && cells[b*int(c.f.stride)+int(c.f.tw)+i] == key {
				return b*d + i
			}
		}
	}
	return -1
}

// TestTagFindAgreesWithFullScan drives random insert/delete/lookup
// streams through a chain — growing and contracting through the Table
// II states — and checks after every op that the tag-indexed find of
// every table agrees with the full-key scan, and that chain-level
// Contains matches a map model.
func TestTagFindAgreesWithFullScan(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := NewChain[uint64](2, Config{Seed: seed | 1, R: 3})
		model := map[uint64]bool{}
		rng := hashutil.NewRNG(seed*2 + 1)
		for _, op := range ops {
			key := uint64(op%251) + 1
			switch rng.Intn(3) {
			case 0:
				if !model[key] {
					leftovers, _ := c.Insert(key, key*3)
					if len(leftovers) == 0 {
						model[key] = true
					} else {
						// Denylist spill: the chain no longer holds every
						// key the stream inserted; drop spilled keys from
						// the model (they may be keys other than `key`).
						for _, lo := range leftovers {
							delete(model, lo.Key)
							if lo.Key != key {
								model[key] = true
							}
						}
					}
				}
			case 1:
				if _, deleted := c.Delete(key); deleted != model[key] {
					return false
				}
				delete(model, key)
			default:
				if c.Contains(key) != model[key] {
					return false
				}
			}
			// Invariant: per table, tag-indexed find ≡ full-key scan for
			// both present and absent probes.
			for _, probe := range []uint64{key, key + 1000} {
				h := hashutil.Key64(probe)
				for i := 0; i < c.Tables(); i++ {
					if c.findIn(c.tab(i), h, probe) != slowFind(c, c.tab(i), probe) {
						return false
					}
				}
			}
		}
		// Exhaustive sweep at the final state (whatever Table II state
		// the stream drove the chain into).
		for key := uint64(1); key <= 252; key++ {
			h := hashutil.Key64(key)
			for i := 0; i < c.Tables(); i++ {
				if c.findIn(c.tab(i), h, key) != slowFind(c, c.tab(i), key) {
					return false
				}
			}
			if c.Contains(key) != model[key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestTagFindAgreesAcrossTableIIStates pins the agreement on a base-2
// chain from its opening 1+1-bucket table through every state Grow
// leads to from there in two merge cycles, each checked filled to G and
// again immediately after its Grow (the restructure that re-homes every
// entry and must preserve tags).
func TestTagFindAgreesAcrossTableIIStates(t *testing.T) {
	c := NewChain[struct{}](2, Config{R: 3, Seed: 99})
	if got := c.Lengths(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("opening lengths %v, want [1]", got)
	}
	next := uint64(1)
	check := func(state int) {
		t.Helper()
		for key := uint64(1); key < next+8; key++ {
			h := hashutil.Key64(key)
			found := false
			for i := 0; i < c.Tables(); i++ {
				got := c.findIn(c.tab(i), h, key)
				if want := slowFind(c, c.tab(i), key); got != want {
					t.Fatalf("state %d (lengths %v): find(%d) = %d, scan = %d", state, c.Lengths(), key, got, want)
				}
				if got >= 0 {
					found = true
				}
			}
			if found != c.Contains(key) {
				t.Fatalf("state %d (lengths %v): Contains(%d) disagrees with per-table find", state, c.Lengths(), key)
			}
		}
	}
	for state := 0; state < 10; state++ {
		for !c.atG(c.active()) {
			c.Insert(next, struct{}{})
			next++
		}
		check(state)
		c.Grow()
		check(state + 1)
	}
}

// TestKickPreservesTags checks the kick loop's tag bookkeeping: after
// heavy kicking, every occupied cell's tag must equal tagOf of its
// key's hash (the invariant that makes probes correct after
// relocations without recomputing tags).
func TestKickPreservesTags(t *testing.T) {
	tb := newOneTable[uint64](4, Config{D: 2, MaxKicks: 50, Seed: 7})
	for k := uint64(1); k <= 200; k++ {
		tb.Insert(k, k) // most fail once full; each failure kicks first
	}
	if tb.c.Kicks() == 0 {
		t.Fatal("workload produced no kicks; invariant not exercised")
	}
	checked := 0
	cells := tb.c.words(&tb.c.first)
	for b := 0; b < tb.c.first.buckets(); b++ {
		for c := 0; c < int(tb.c.f.d); c++ {
			if tag := tb.c.tagAt(cells, b, c); tag != 0 {
				key := cells[b*int(tb.c.f.stride)+int(tb.c.f.tw)+c]
				if want := tagOf(hashutil.Key64(key)); tag != want {
					t.Fatalf("cell (%d,%d): tag %#x, want %#x for key %d", b, c, tag, want, key)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no occupied cells to check")
	}
}

// TestOddBucketWidths exercises the non-default d values of the §V-B
// parameter sweep — including d below, equal to and above one tag
// word — through the same set-semantics workload.
func TestOddBucketWidths(t *testing.T) {
	for _, d := range []int{1, 3, 4, 8, 16, 32} {
		tb := newOneTable[int](32, Config{D: d, Seed: uint64(d) + 1})
		for k := uint64(1); k <= 100; k++ {
			tb.Insert(k, int(k))
		}
		for k := uint64(1); k <= 100; k++ {
			if got := tb.find(k); got != slowFind(tb.c, &tb.c.first, k) {
				t.Fatalf("d=%d: find(%d) = %d, scan = %d", d, k, got, slowFind(tb.c, &tb.c.first, k))
			}
		}
		for k := uint64(1); k <= 100; k += 3 {
			tb.Delete(k)
		}
		for k := uint64(1); k <= 110; k++ {
			if got := tb.find(k); got != slowFind(tb.c, &tb.c.first, k) {
				t.Fatalf("d=%d after deletes: find(%d) = %d, scan = %d", d, k, got, slowFind(tb.c, &tb.c.first, k))
			}
		}
	}
}

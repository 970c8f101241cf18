package cuckoo

import (
	"testing"

	"cuckoograph/internal/hashutil"
)

// The probe path must be allocation-free: these tests pin zero heap
// allocations per operation for table and chain reads, on small and
// multi-table states alike.

func TestTableLookupZeroAlloc(t *testing.T) {
	tb := newOneTable[uint64](64, Config{})
	for k := uint64(1); k <= 300; k++ {
		tb.Insert(k, k)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tb.Lookup(37); !ok {
			t.Fatal("lookup miss")
		}
		tb.Lookup(1 << 40) // absent
	}); n != 0 {
		t.Fatalf("Table.Lookup allocates %.1f/op, want 0", n)
	}
}

func TestChainRefZeroAlloc(t *testing.T) {
	c := NewChain[uint64](2, Config{})
	for k := uint64(1); k <= 500; k++ {
		c.Insert(k, k*2)
	}
	if c.Tables() < 2 {
		t.Fatalf("chain has %d tables; want a grown chain", c.Tables())
	}
	if n := testing.AllocsPerRun(200, func() {
		if p := c.FindHashed(hashutil.Key64(123), 123); !p.Found() || *c.At(p) != 246 {
			t.Fatal("ref miss")
		}
		if c.FindHashed(hashutil.Key64(1<<40), 1<<40).Found() {
			t.Fatal("phantom ref")
		}
	}); n != 0 {
		t.Fatalf("Chain.FindHashed and At allocate %.1f/op, want 0", n)
	}
}

func TestChainForEachRefZeroAlloc(t *testing.T) {
	c := NewChain[uint64](2, Config{})
	// Track the expected sum net of denylist spill: entries the chain
	// hands back as leftovers are the caller's problem, not stored.
	var want uint64
	for k := uint64(1); k <= 500; k++ {
		leftovers, _ := c.Insert(k, k)
		want += k
		for _, lo := range leftovers {
			want -= lo.Val
		}
	}
	var sum uint64
	if n := testing.AllocsPerRun(50, func() {
		sum = 0
		c.ForEachRef(func(k uint64, v *uint64) bool {
			sum += *v
			return true
		})
	}); n != 0 {
		t.Fatalf("Chain.ForEachRef allocates %.1f/run, want 0", n)
	}
	if sum != want {
		t.Fatalf("ForEachRef sum = %d, want %d", sum, want)
	}
}

// TestRestructurePinsNoRemovedTable pins what a transformation leaves
// behind the live tables: every record of the rest array past the live
// ones is zero — so a table a contraction removed, or a merge replaced,
// is garbage at once instead of staying reachable from the vacated
// record until a later Grow overwrites it — and the array itself is
// gone when the chain is back to one table.
func TestRestructurePinsNoRemovedTable(t *testing.T) {
	c := NewChain[uint64](2, Config{R: 3, Seed: 5})
	contractions := 0 // 3 → 2 tables: the case that vacates a record
	check := func(when string, k uint64) {
		t.Helper()
		slots, n := c.slots(), c.Tables()
		if (slots == nil) != (n == 1) {
			t.Fatalf("%s %d: %d tables, rest array present: %v", when, k, n, slots != nil)
		}
		for i := n - 1; i < len(slots); i++ {
			if slots[i] != (table[uint64]{}) {
				t.Fatalf("%s %d: %d tables, spare record %d still holds a table", when, k, n, i)
			}
		}
	}
	for k := uint64(1); k <= 300; k++ {
		c.Insert(k, k) // walks several Grow merges, ends on three tables
		check("insert", k)
	}
	for k := uint64(1); k <= 295; k++ {
		before := c.Tables()
		c.Delete(k) // walks reverse transformations
		if before == 3 && c.Tables() == 2 {
			contractions++
		}
		check("delete", k)
	}
	if contractions == 0 {
		t.Fatal("workload never contracted a three-table chain")
	}
}

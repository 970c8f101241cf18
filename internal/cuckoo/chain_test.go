package cuckoo

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cuckoograph/internal/hashutil"
)

// TestChainTransformationRule verifies Table II of the paper: with R=3
// and base length n, successive Grow transformations walk the length
// sequence [n] → [n,n/2] → [n,n/2,n/2] → [2n,n] → [2n,n,n] → [4n,2n] →
// [4n,2n,2n] → [8n,4n] → … A chain of base 2 opens one step earlier, at
// [n/2] = [1], and its first Grow rebuilds that table in place at [n].
func TestChainTransformationRule(t *testing.T) {
	for _, n := range []int{8, 2} {
		c := NewChain[struct{}](n, Config{R: 3})
		want := [][]int{
			{n},                   // state 0
			{n, n / 2},            // state 1
			{n, n / 2, n / 2},     // state 2
			{2 * n, n},            // state 3
			{2 * n, n, n},         // state 4
			{4 * n, 2 * n},        // state 5
			{4 * n, 2 * n, 2 * n}, // state 6
			{8 * n, 4 * n},        // state 7
			{8 * n, 4 * n, 4 * n}, // state 8
			{16 * n, 8 * n},       // state 9
		}
		if n == 2 {
			want = append([][]int{{1}}, want...)
		}
		for state, lens := range want {
			if got := c.Lengths(); !reflect.DeepEqual(got, lens) {
				t.Fatalf("n=%d, state %d: lengths %v, want %v", n, state, got, lens)
			}
			if c.Transformations() != uint64(state) {
				t.Fatalf("n=%d, state %d: Transformations() = %d", n, state, c.Transformations())
			}
			c.Grow()
		}
	}
}

// TestChainGrowConservation checks that merging never loses or
// duplicates items.
func TestChainGrowConservation(t *testing.T) {
	c := NewChain[uint64](8, Config{R: 3})
	inserted := map[uint64]bool{}
	var key uint64
	for c.Transformations() < 6 { // push through two merges
		key++
		if lo, _ := c.Insert(key, key); len(lo) != 0 {
			t.Fatalf("insert %d failed (leftovers %v)", key, lo)
		}
		inserted[key] = true
	}
	if c.Size() != len(inserted) {
		t.Fatalf("size %d, want %d", c.Size(), len(inserted))
	}
	seen := map[uint64]int{}
	c.ForEachRef(func(k uint64, v *uint64) bool {
		if k != *v {
			t.Fatalf("payload corrupted: key %d val %d", k, *v)
		}
		seen[k]++
		return true
	})
	for k := range inserted {
		if seen[k] != 1 {
			t.Fatalf("key %d seen %d times", k, seen[k])
		}
	}
}

// TestChainMergeDoesNotKick drives chains of payload width 1 and 7 with
// R = 1, 2, 3 through four merges each. A merge must keep every key and
// its whole row, leave the lengths Table II gives, and place into the
// doubled first table without kicking: an entry goes to the fresh second
// table only when both its buckets there are full, so a merge that
// overflows nothing kicks nothing. At these fills nothing is homeless.
func TestChainMergeDoesNotKick(t *testing.T) {
	const n, merges = 8, 4
	for _, width := range []int{1, 7} {
		for r := 1; r <= 3; r++ {
			t.Run(fmt.Sprintf("width=%d/R=%d", width, r), func(t *testing.T) {
				c := NewRowChain[uint64](n, width, Config{R: r})
				lengths := []int{n} // Table II, stepped alongside the chain
				var key uint64
				overflowed := 0
				for done := 0; done < merges; {
					if c.atG(c.active()) {
						merging := c.Tables() >= r
						kicks := c.Kicks()
						if lo := c.Grow(); len(lo) != 0 {
							t.Fatalf("Grow %d left %d entries homeless", c.Transformations(), len(lo)/width)
						}
						if merging {
							lengths = []int{2 * lengths[0], lengths[0]}
							overflowed += checkMerge(t, c, c.Kicks()-kicks)
							done++
						} else if len(lengths) == 1 {
							lengths = append(lengths, n/2)
						} else {
							lengths = append(lengths, lengths[len(lengths)-1])
						}
						if got := c.Lengths(); !reflect.DeepEqual(got, lengths) {
							t.Fatalf("after Grow %d: lengths %v, want %v", c.Transformations(), got, lengths)
						}
					}
					key++
					if lo, grew := c.InsertRow(key, rowFor(key, width)); len(lo) != 0 || grew {
						t.Fatalf("insert %d: %d entries homeless, grew %v", key, len(lo)/width, grew)
					}
				}
				// Only R = 3 packs a merged table to ≈ G (its old tables
				// are as long together as it is); with fewer tables it
				// ends near 0.7 and nothing need overflow.
				if r == 3 && overflowed == 0 {
					t.Fatal("no merge overflowed into the second table, so the check of its entries never ran")
				}
				if c.Size() != int(key) {
					t.Fatalf("size %d after %d inserts", c.Size(), key)
				}
				for k := uint64(1); k <= key; k++ {
					if got := c.RowHashed(hashutil.Key64(k), k); !slices.Equal(got, rowFor(k, width)) {
						t.Fatalf("key %d: row %#x, want %#x", k, got, rowFor(k, width))
					}
				}
			})
		}
	}
}

// checkMerge checks the chain c a merge has just left, which took kicks
// kicks: every entry of the second table found both its buckets in the
// first full, and kicks were taken only if something overflowed there.
// It returns how many entries overflowed.
func checkMerge(t *testing.T, c *Chain[uint64], kicks uint64) int {
	t.Helper()
	second := c.tab(1)
	if second.size == 0 && kicks != 0 {
		t.Fatalf("merge into an empty second table took %d kicks", kicks)
	}
	words := c.words(&c.first)
	c.forEachIn(second, func(key uint64, _ *uint64) bool {
		b1, b2 := c.first.bucketPair(remix(hashutil.Key64(key), c.first.seed))
		_, free1 := c.emptyIn(words, b1)
		_, free2 := c.emptyIn(words, b2)
		if free1+free2 != 0 {
			t.Fatalf("key %d went to the second table with %d free cells in the first", key, free1+free2)
		}
		return true
	})
	return int(second.size)
}

// TestChainInsertGrowsAtThreshold confirms a Grow happens exactly when
// the active table reaches G.
func TestChainInsertGrowsAtThreshold(t *testing.T) {
	c := NewChain[struct{}](8, Config{G: 0.5, R: 3})
	grewAt := -1
	for i := 1; i <= 200; i++ {
		lo, grew := c.Insert(uint64(i), struct{}{})
		if len(lo) != 0 {
			t.Fatalf("insert %d failed", i)
		}
		if grew && grewAt < 0 {
			grewAt = i
		}
	}
	if grewAt < 0 {
		t.Fatal("chain never grew over 200 inserts with G=0.5")
	}
	// The first table has (8+4)*8 = 96 cells; G=0.5 ⇒ growth at 48 stored.
	if grewAt != 49 {
		t.Fatalf("first growth at insert %d, want 49", grewAt)
	}
}

// TestChainReverseTransformation exercises contraction: deletions that
// drop the overall LR below Λ must shrink the chain, and after shrinking
// every surviving item must still be found.
func TestChainReverseTransformation(t *testing.T) {
	c := NewChain[uint64](8, Config{R: 3, Lambda: 0.5, G: 0.9})
	const total = 600
	for i := uint64(1); i <= total; i++ {
		if lo, _ := c.Insert(i, i); len(lo) != 0 {
			t.Fatalf("insert %d failed", i)
		}
	}
	tablesBefore := c.Tables()
	cellsBefore := c.Cells()
	lost := map[uint64]bool{} // keys evicted as contraction leftovers
	for i := uint64(1); i <= total-20; i++ {
		lo, deleted := c.Delete(i)
		if !deleted && !lost[i] {
			t.Fatalf("delete %d failed", i)
		}
		for _, e := range lo {
			lost[e.Key] = true
		}
	}
	if c.Cells() >= cellsBefore {
		t.Fatalf("cells did not shrink: %d → %d (tables %d → %d)",
			cellsBefore, c.Cells(), tablesBefore, c.Tables())
	}
	survivors := 0
	for i := uint64(total - 19); i <= total; i++ {
		if c.Contains(i) {
			survivors++
		} else if !lost[i] {
			t.Fatalf("surviving key %d lost after contraction", i)
		}
	}
	if c.Size() != survivors {
		t.Fatalf("size %d ≠ %d surviving keys", c.Size(), survivors)
	}
}

func TestChainDeleteAbsent(t *testing.T) {
	c := NewChain[uint64](8, Config{})
	if _, deleted := c.Delete(42); deleted {
		t.Fatal("delete of absent key reported true")
	}
}

// TestChainQuickModel drives the chain against a map model through mixed
// insert/delete/lookup streams, covering growth and contraction.
func TestChainQuickModel(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := NewChain[uint64](4, Config{Seed: seed | 1, G: 0.8, Lambda: 0.4})
		model := map[uint64]bool{}
		lost := map[uint64]bool{} // keys the chain reported as leftovers
		for i, op := range ops {
			key := uint64(op%211) + 1
			switch i % 3 {
			case 0:
				if !model[key] && !lost[key] {
					model[key] = true
					lo, _ := c.Insert(key, key)
					for _, e := range lo {
						lost[e.Key] = true
						delete(model, e.Key)
					}
				}
			case 1:
				lo, deleted := c.Delete(key)
				if deleted != model[key] {
					return false
				}
				delete(model, key)
				for _, e := range lo {
					lost[e.Key] = true
					delete(model, e.Key)
				}
			default:
				if c.Contains(key) != model[key] {
					return false
				}
			}
		}
		return c.Size() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

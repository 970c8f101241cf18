package cuckoo

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// scanWidths are the bucket widths the scan tests run at: below, at,
// between and at twice one tag word, and so wide that a bucket's tag
// words take two runs of decode.
var scanWidths = []int{1, 3, 8, 12, 16, 72}

// scanState is a chain in one of the Table II states a scan must read.
type scanState struct {
	name string
	c    *Chain[uint64]
}

// scanStates returns, for bucket width d and payload width width, a
// chain in every state Table II gives a chain of R = 3 tables: one, two
// and three tables, two tables after a merge, and after a contraction.
// Each cell's row holds its key times 3 plus the element index, so a
// scan that reads the wrong row shows.
func scanStates(t *testing.T, d, width int) []scanState {
	t.Helper()
	build := func(transforms uint64) (*Chain[uint64], uint64) {
		c := NewRowChain[uint64](4, width, Config{D: d, R: 3, Seed: uint64(d)*31 + uint64(width)})
		key := uint64(0)
		for c.Transformations() < transforms || key < 5 {
			key++
			row := make([]uint64, width)
			for i := range row {
				row[i] = key*3 + uint64(i)
			}
			c.InsertRow(key, row)
		}
		return c, key
	}
	var states []scanState
	for i, name := range []string{"1 table", "2 tables", "3 tables", "merged"} {
		c, _ := build(uint64(i))
		if i == 3 && c.Tables() != 2 {
			t.Fatalf("d=%d: merged chain has %d tables", d, c.Tables())
		}
		states = append(states, scanState{name, c})
	}
	c, last := build(3)
	for key := uint64(1); c.Transformations() == 3 && key <= last; key++ {
		c.Delete(key)
	}
	if c.Transformations() != 4 {
		t.Fatalf("d=%d: deletes never contracted the chain", d)
	}
	return append(states, scanState{"contracted", c})
}

// slowKeys lists c's keys table by table, bucket by bucket and lane by
// lane, reading each cell's tag on its own: the order every scan keeps.
func slowKeys[P any](c *Chain[P]) []uint64 {
	var keys []uint64
	for i := 0; i < c.Tables(); i++ {
		t := c.tab(i)
		cells := c.words(t)
		for b := 0; b < t.buckets(); b++ {
			for cell := 0; cell < int(c.f.d); cell++ {
				if c.tagAt(cells, b, cell) != 0 {
					keys = append(keys, cells[b*int(c.f.stride)+int(c.f.tw)+cell])
				}
			}
		}
	}
	return keys
}

// TestScansAgree checks that ForEachRef, ForEachKey and AppendKeys
// yield the keys in the order of a lane-by-lane walk, that ForEachRef
// hands out each key's own row, and that a scan stopped at every index
// k yields exactly the first k+1 keys and reports false. AppendKeys
// appends onto a window of a larger live array: append semantics allow
// writes up to the returned length and no further, so the word after
// it must keep its sentinel.
func TestScansAgree(t *testing.T) {
	const sentinel = 0xDEADBEEF
	for _, d := range scanWidths {
		for _, width := range []int{1, 3} {
			for _, st := range scanStates(t, d, width) {
				t.Run(fmt.Sprintf("d=%d/width=%d/%s", d, width, st.name), func(t *testing.T) {
					c := st.c
					want := slowKeys(c)
					if len(want) != c.Size() {
						t.Fatalf("lane walk found %d keys, Size %d", len(want), c.Size())
					}
					var refs, keys []uint64
					if !c.ForEachRef(func(k uint64, v *uint64) bool {
						if row := unsafe.Slice(v, width); row[0] != k*3 || row[width-1] != k*3+uint64(width-1) {
							t.Fatalf("key %d: row %v", k, row)
						}
						refs = append(refs, k)
						return true
					}) {
						t.Fatal("full ForEachRef reported a stop")
					}
					if !c.ForEachKey(func(k uint64) bool { keys = append(keys, k); return true }) {
						t.Fatal("full ForEachKey reported a stop")
					}
					big := make([]uint64, 3+len(want)+1)
					for i := range big {
						big[i] = sentinel
					}
					appended := c.AppendKeys(big[:3])
					if &appended[0] != &big[0] || big[3+len(want)] != sentinel {
						t.Fatalf("AppendKeys moved its result or wrote past it: %#x", big[3+len(want)])
					}
					appended = appended[3:]
					for name, got := range map[string][]uint64{"ForEachRef": refs, "ForEachKey": keys, "AppendKeys": appended} {
						if !slices.Equal(got, want) {
							t.Fatalf("%s: %v, lane walk %v", name, got, want)
						}
					}
					for k := range want {
						var got []uint64
						if c.ForEachKey(func(key uint64) bool { got = append(got, key); return len(got) <= k }) {
							t.Fatalf("ForEachKey stopped at %d reported completion", k)
						}
						if !slices.Equal(got, want[:k+1]) {
							t.Fatalf("ForEachKey stopped at %d: %v, want %v", k, got, want[:k+1])
						}
						got = got[:0]
						if c.ForEachRef(func(key uint64, _ *uint64) bool { got = append(got, key); return len(got) <= k }) {
							t.Fatalf("ForEachRef stopped at %d reported completion", k)
						}
						if !slices.Equal(got, want[:k+1]) {
							t.Fatalf("ForEachRef stopped at %d: %v, want %v", k, got, want[:k+1])
						}
					}
				})
			}
		}
	}
}

// BenchmarkChainScan times the three scans of a 512-key chain of two
// tables at the default shape, in ns per key.
func BenchmarkChainScan(b *testing.B) {
	c := NewChain[struct{}](2, Config{})
	for key := uint64(1); c.Size() < 512; key++ {
		c.Insert(key*0x9E3779B97F4A7C15, struct{}{})
	}
	if c.Tables() != 2 {
		b.Fatalf("chain has %d tables, want 2", c.Tables())
	}
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Size()), "ns/edge")
	}
	var n int
	b.Run("ForEachRef", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ForEachRef(func(uint64, *struct{}) bool { n++; return true })
		}
		perKey(b)
	})
	b.Run("ForEachKey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ForEachKey(func(uint64) bool { n++; return true })
		}
		perKey(b)
	})
	b.Run("AppendKeys", func(b *testing.B) {
		dst := make([]uint64, 0, c.Size())
		for i := 0; i < b.N; i++ {
			dst = c.AppendKeys(dst[:0])
		}
		n += len(dst)
		perKey(b)
	})
	if n == 0 {
		b.Fatal("scans visited nothing")
	}
}

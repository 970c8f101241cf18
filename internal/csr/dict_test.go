package csr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkDict verifies d against the map it was filled beside: every key
// resolves to its id, the size matches, the load is within 3/4 and the
// capacity is a power of two.
func checkDict(t *testing.T, d *dict, want map[uint64]int32) {
	t.Helper()
	if d.n != len(want) {
		t.Fatalf("dict holds %d keys, want %d", d.n, len(want))
	}
	if c := len(d.keys); c&(c-1) != 0 || len(d.vals) != c || d.n*4 > c*3 {
		t.Fatalf("capacity %d (vals %d) for %d keys: want a power of two at load ≤ 3/4", c, len(d.vals), d.n)
	}
	for k, id := range want {
		if got, ok := d.get(k); !ok || got != id {
			t.Fatalf("get(%#x) = %d, %v; want %d", k, got, ok, id)
		}
	}
}

// fill interns keys the way Build does — the next id is the count so far —
// into d and into the reference map.
func fill(d *dict, want map[uint64]int32, keys []uint64) {
	for _, k := range keys {
		id := d.intern(k, int32(len(want)))
		if prev, seen := want[k]; seen != (id != int32(len(want))) || seen && prev != id {
			panic("intern disagrees with the reference map")
		}
		want[k] = id
	}
}

func TestDictEdgeKeys(t *testing.T) {
	d, want := newDict(0), map[uint64]int32{}
	if _, ok := d.get(0); ok {
		t.Fatal("empty dict resolves key 0")
	}
	fill(&d, want, []uint64{0, math.MaxUint64, 1, 0, math.MaxUint64})
	checkDict(t, &d, want)
	if len(want) != 3 || want[0] != 0 || want[math.MaxUint64] != 1 || want[1] != 2 {
		t.Fatalf("ids = %v", want)
	}
	if _, ok := d.get(2); ok {
		t.Fatal("absent key resolved")
	}
}

// TestDictCollidingRun fills one home slot's probe run: keys chosen to
// share a home in a 64-slot table, enough of them that the run wraps
// around the end of the table.
func TestDictCollidingRun(t *testing.T) {
	d, want := newDict(40), map[uint64]int32{}
	if len(d.keys) != 64 {
		t.Fatalf("newDict(40) has capacity %d, want 64", len(d.keys))
	}
	home := len(d.keys) - 3
	var run []uint64
	for k := uint64(0); len(run) < 40; k++ {
		if d.home(k) == home {
			run = append(run, k)
		}
	}
	fill(&d, want, run)
	if len(d.keys) != 64 {
		t.Fatalf("40 keys grew a 64-slot table to %d", len(d.keys))
	}
	checkDict(t, &d, want)
	// A key that is absent but shares the home walks the whole run.
	for k := run[len(run)-1] + 1; ; k++ {
		if d.home(k) == home {
			if _, ok := d.get(k); ok {
				t.Fatalf("absent key %d resolved", k)
			}
			break
		}
	}
}

func TestDictGrowsPastHint(t *testing.T) {
	d, want := newDict(1), map[uint64]int32{}
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i) * 0x1_0000_0001 // low and high words both vary
	}
	fill(&d, want, keys)
	checkDict(t, &d, want)
	if len(d.keys) != 16384 {
		t.Fatalf("capacity after 10 000 keys = %d, want 16384", len(d.keys))
	}
}

func TestDictMillionRandomKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("1M keys")
	}
	rng := rand.New(rand.NewSource(21))
	keys := make([]uint64, 1_200_000)
	for i := range keys {
		keys[i] = rng.Uint64() >> uint(rng.Intn(64)) // every magnitude, and repeats among the small ones
	}
	d, want := newDict(1_000_000), make(map[uint64]int32, len(keys))
	fill(&d, want, keys)
	checkDict(t, &d, want)
}

// FuzzDict interprets the input as a sequence of 8-byte keys, interns
// them into a dict with a hint derived from the first byte, and checks
// the result against a map.
func FuzzDict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64([]byte{9}, 0x9E3779B97F4A7C15))
	f.Fuzz(func(t *testing.T, in []byte) {
		hint := 0
		if len(in) > 0 {
			hint = int(in[0])
		}
		d, want := newDict(hint), map[uint64]int32{}
		for ; len(in) >= 8; in = in[8:] {
			fill(&d, want, []uint64{binary.LittleEndian.Uint64(in)})
		}
		checkDict(t, &d, want)
	})
}

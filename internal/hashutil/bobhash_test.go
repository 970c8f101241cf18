package hashutil

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestHash64MatchesByteHash(t *testing.T) {
	keys := []uint64{0, 1, 42, 1 << 32, ^uint64(0), 0xdeadbeefcafef00d}
	seeds := []uint32{1, 7, 0x9e3779b9, ^uint32(0)}
	var buf [8]byte
	for _, k := range keys {
		for _, s := range seeds {
			binary.LittleEndian.PutUint64(buf[:], k)
			if got, want := Hash64(k, s), Hash(buf[:], s); got != want {
				t.Fatalf("Hash64(%#x,%#x) = %#x, want %#x", k, s, got, want)
			}
		}
	}
}

func TestHash64MatchesByteHashQuick(t *testing.T) {
	f := func(k uint64, s uint32) bool {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], k)
		return Hash64(k, s) == Hash(buf[:], s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKey64Bijective(t *testing.T) {
	// Key64 is the splitmix64 finaliser, a bijection on uint64: distinct
	// keys can never collide in the full 64 bits. Spot-check injectivity
	// and that the known inverse-free zero case still maps sensibly.
	seen := map[uint64]uint64{}
	for k := uint64(0); k < 1<<14; k++ {
		h := Key64(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Key64 collision: %d and %d both hash to %#x", prev, k, h)
		}
		seen[h] = k
	}
}

func TestKey64Deterministic(t *testing.T) {
	f := func(k uint64) bool { return Key64(k) == Key64(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKey64Distribution(t *testing.T) {
	// Sequential keys binned by the top byte (the fingerprint-tag byte of
	// the probe path) and by low bits (the shard/bucket side) must both
	// spread roughly uniformly.
	const keys, bins = 1 << 14, 64
	hi := make([]int, bins)
	lo := make([]int, bins)
	for k := uint64(0); k < keys; k++ {
		h := Key64(k)
		hi[h>>58]++
		lo[h%bins]++
	}
	want := keys / bins
	for b := 0; b < bins; b++ {
		if hi[b] < want/2 || hi[b] > want*2 {
			t.Fatalf("top-bits bin %d has %d keys, want ≈%d", b, hi[b], want)
		}
		if lo[b] < want/2 || lo[b] > want*2 {
			t.Fatalf("low-bits bin %d has %d keys, want ≈%d", b, lo[b], want)
		}
	}
}

func TestHashSeedsIndependent(t *testing.T) {
	// Different seeds must give different hash functions (the two arrays
	// of a cuckoo table rely on independence).
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if Hash64(k, 1) == Hash64(k, 2) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/1000 collisions across seeds; hashes not independent", same)
	}
}

func TestHashAllLengths(t *testing.T) {
	// Exercise every tail-switch branch (0..12+ byte keys).
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	seen := map[uint32]int{}
	for n := 0; n <= len(data); n++ {
		seen[Hash(data[:n], 99)]++
	}
	// All 41 prefixes should hash distinctly with overwhelming probability.
	if len(seen) < 40 {
		t.Fatalf("only %d distinct hashes across 41 prefixes", len(seen))
	}
}

func TestHashDistribution(t *testing.T) {
	// Bucketing sequential keys into 64 bins should be roughly uniform.
	const keys, bins = 1 << 14, 64
	counts := make([]int, bins)
	for k := uint64(0); k < keys; k++ {
		counts[Hash64(k, 12345)%bins]++
	}
	want := keys / bins
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bin %d has %d keys, want ≈%d", b, c, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	if NewRNG(7).Next() == c.Next() {
		t.Fatal("different seeds produced identical first output")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(123)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		if v := r.Uint64n(3); v >= 3 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f", f)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

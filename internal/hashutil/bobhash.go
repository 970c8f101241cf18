// Package hashutil implements the 32-bit Bob Jenkins hash ("Bob Hash",
// lookup2/evahash) used by the CuckooGraph paper, plus 64-bit mixing
// helpers and a small deterministic PRNG used across the repository.
//
// The paper hashes 8-byte node identifiers with 32-bit Bob Hash seeded
// with random initial values (§V-A). Hash64 specialises the byte-slice
// hash for a uint64 key without allocating.
package hashutil

// mix is the core 96-bit mixing step of Bob Jenkins' lookup2 hash.
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return a, b, c
}

// golden is the golden-ratio constant from the reference implementation.
const golden = 0x9e3779b9

// Hash hashes an arbitrary byte slice with the given seed, following
// Bob Jenkins' lookup2 ("evahash") reference implementation.
func Hash(key []byte, seed uint32) uint32 {
	a := uint32(golden)
	b := uint32(golden)
	c := seed
	length := uint32(len(key))
	i := 0
	for len(key)-i >= 12 {
		a += uint32(key[i]) | uint32(key[i+1])<<8 | uint32(key[i+2])<<16 | uint32(key[i+3])<<24
		b += uint32(key[i+4]) | uint32(key[i+5])<<8 | uint32(key[i+6])<<16 | uint32(key[i+7])<<24
		c += uint32(key[i+8]) | uint32(key[i+9])<<8 | uint32(key[i+10])<<16 | uint32(key[i+11])<<24
		a, b, c = mix(a, b, c)
		i += 12
	}
	c += length
	rest := key[i:]
	// The reference implementation switches on the remaining byte count;
	// byte 8..10 shift into c above the length byte.
	if len(rest) > 10 {
		c += uint32(rest[10]) << 24
	}
	if len(rest) > 9 {
		c += uint32(rest[9]) << 16
	}
	if len(rest) > 8 {
		c += uint32(rest[8]) << 8
	}
	if len(rest) > 7 {
		b += uint32(rest[7]) << 24
	}
	if len(rest) > 6 {
		b += uint32(rest[6]) << 16
	}
	if len(rest) > 5 {
		b += uint32(rest[5]) << 8
	}
	if len(rest) > 4 {
		b += uint32(rest[4])
	}
	if len(rest) > 3 {
		a += uint32(rest[3]) << 24
	}
	if len(rest) > 2 {
		a += uint32(rest[2]) << 16
	}
	if len(rest) > 1 {
		a += uint32(rest[1]) << 8
	}
	if len(rest) > 0 {
		a += uint32(rest[0])
	}
	_, _, c = mix(a, b, c)
	return c
}

// Hash64 hashes a uint64 key with the given seed. It is equivalent to
// Hash on the key's 8 little-endian bytes but avoids the allocation and
// loop, which matters on the hot path of every table probe.
func Hash64(key uint64, seed uint32) uint32 {
	a := uint32(golden)
	b := uint32(golden)
	c := seed + 8 // c += length for an 8-byte key
	b += uint32(key >> 32)
	a += uint32(key)
	_, _, c = mix(a, b, c)
	return c
}

// Key64 mixes a uint64 key into a full 64-bit hash with the splitmix64
// finaliser (a bijection, so distinct keys never collide in the full
// 64 bits). It is THE hash of the probe path: each operation computes
// it once per key, and every cuckoo table derives both of its bucket
// indexes and the cell fingerprint tag from this one value by mixing
// with its per-table seed — replacing the two seeded Bob hashes per
// table per probe of the original layout.
func Key64(key uint64) uint64 {
	z := key
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RNG is a splitmix64 pseudo-random generator. It is deterministic for
// a given seed so every experiment in the repository is reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64-bit pseudo-random value.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit pseudo-random value.
func (r *RNG) Uint32() uint32 { return uint32(r.Next() >> 32) }

// Intn returns a pseudo-random int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("hashutil: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hashutil: Uint64n with zero n")
	}
	return r.Next() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

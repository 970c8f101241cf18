// Package cuckoo implements the cuckoo-hash building blocks of
// CuckooGraph: a d-cell-per-bucket cuckoo table with the paper's 2:1
// bucket-array ratio (§V-A), and the TRANSFORMATION chain that grows and
// shrinks a sequence of such tables by the Table II rule (§III-A1).
//
// The chain is generic over its payload so the same machinery backs both
// the L-CHT (payload: a cell's Part 2, a row of slots) and the S-CHTs
// (payload: a weight or edge list).
//
// # Layout
//
// A Chain is one 64-byte object: its first table BY VALUE — a 40-byte
// record of cell storage, length, seed, eviction-RNG state and
// population — a pointer to the records of tables 2..R, which exist only
// while the chain has more than one table, its seed state, and a pointer
// to its Family. The family holds once, as plain words, what all its
// chains share — d, the tag-word count, the bucket stride, the payload
// width, T, G, Λ, the base length — and their lifetime counters; an
// engine's S-CHTs share one, so its line stays in cache. A probe goes
// owner → chain → bucket: two dependent loads, everything it reads of
// the chain in one cache line (layout_test.go pins that). A table's cell
// storage is a bare pointer; the accessors words and payloads rebuild a
// bounds-checked slice from it and the family's shape.
//
// A cell's payload is a ROW of `width` consecutive P in the table's
// payload array, the width fixed when the chain is made: 1 for a chain
// from NewChain (every S-CHT), more for one from NewRowChain (the
// L-CHT, whose row is the cell's whole Part 2 by value). Rows travel
// with their keys and tags through kick loops, merges and contractions,
// element by element, so nothing a cell owns lives outside its table.
//
// # Probe path
//
// Every operation hashes its key ONCE with hashutil.Key64 into a 64-bit
// value h; a whole chain probes all of its tables with that same h, each
// table deriving its two bucket indexes by remixing h with its private
// seed (see remix). Alongside the keys, each cell carries a one-byte
// fingerprint tag derived from h (tagOf; 0 marks an empty cell), and a
// bucket's d tags are packed into word(s) stored IMMEDIATELY BEFORE the
// bucket's keys in one flat array — so a probe loads the tag word,
// rejects all non-matching cells with a broadcast-XOR SWAR scan, and
// the key it then has to verify sits in the adjacent cache line the
// hardware prefetcher has already pulled in. Tag equality is only a
// pre-filter — the full 8-byte key compare still decides every match,
// so a tag collision costs one extra compare and can never produce a
// wrong result. Tags travel with their cells through kick loops, so
// relocations never recompute them.
//
// A probe that finds its key returns a Pos; At and DeleteAt act on the
// cell it names, so a caller's duplicate check, payload update and
// removal share one probe.
package cuckoo

import (
	"math/bits"
	"unsafe"

	"cuckoograph/internal/hashutil"
)

// Config carries the tuning parameters shared by every table in a chain.
// Zero fields are replaced by the paper's defaults (§V-B). NewChain
// panics on values a chain header cannot hold: D outside [1, 32768],
// R outside [1, 255], MaxKicks outside [0, 65535].
type Config struct {
	D        int     // cells per bucket (paper default 8)
	MaxKicks int     // T, maximum kick loops before an insertion fails (250)
	G        float64 // loading-rate threshold that triggers expansion (0.9)
	Lambda   float64 // overall loading rate that triggers contraction (0.5)
	R        int     // maximum tables in a chain / large slots per cell (3)
	Seed     uint64  // PRNG seed for hash seeds and random evictions
}

// Defaults returns cfg with zero fields replaced by the paper defaults.
func (cfg Config) Defaults() Config {
	if cfg.D == 0 {
		cfg.D = 8
	}
	if cfg.MaxKicks == 0 {
		cfg.MaxKicks = 250
	}
	if cfg.G == 0 {
		cfg.G = 0.9
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.5
	}
	if cfg.R == 0 {
		cfg.R = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9E3779B97F4A7C15
	}
	return cfg
}

// Entry is a key/payload pair returned by drain and iteration helpers.
// Val comes first so that an empty payload adds no padding after Key.
// A chain of payload width k reports a homeless cell as k consecutive
// entries that share its Key, Val running over the cell's row.
type Entry[P any] struct {
	Val P
	Key uint64
}

// table is the per-table record of a chain: two bucket arrays, each
// bucket holding d cells, array 1 of a1 buckets and array 2 of
// ⌈a1/2⌉. The table's "length" in the paper's sense is a1, the bucket
// count of the larger array: for an even length the arrays have the
// paper's 2:1 ratio, and length 1 is the 1+1-bucket table a chain of
// base 2 opens with (see Family.opening). Everything the tables of a
// chain share lives in its Family, reached through the Chain, so every
// operation on a table is a Chain method.
type table[P any] struct {
	// cells is the interleaved bucket storage, arrays 1 and 2
	// concatenated: bucket b occupies words [b*stride, (b+1)*stride) —
	// tw fingerprint-tag words (8 one-byte tags per word, 0 = empty
	// cell, unused high lanes of a partial word stay 0) followed by d
	// key words. vals holds the payload rows, `width` elements each, in
	// flat cell order b*d + c, the cell index a Pos carries. Both point
	// at the first element of an array whose length words and payloads
	// compute.
	cells *uint64
	vals  *P

	seed uint64       // per-table mix for deriving bucket indexes from Key64
	rng  hashutil.RNG // picks the resident a full bucket evicts
	a1   uint32       // bucket count of array 1; array 2 has (a1+1)>>1
	size uint32       // occupied cells
}

// length returns the paper's table length (buckets in the larger array).
func (t *table[P]) length() int { return int(t.a1) }

// buckets returns the bucket count of both arrays of t; 0 for a spare
// record.
func (t *table[P]) buckets() int { return int(t.a1 + (t.a1+1)>>1) }

// words returns t's cell storage.
func (c *Chain[P]) words(t *table[P]) []uint64 {
	return unsafe.Slice(t.cells, t.buckets()*int(c.f.stride))
}

// payloads returns t's payload storage.
func (c *Chain[P]) payloads(t *table[P]) []P {
	return unsafe.Slice(t.vals, c.cellsOf(t)*int(c.f.width))
}

// rowIn returns the payload row of flat cell index i of t.
func (c *Chain[P]) rowIn(t *table[P], i int) []P {
	w := int(c.f.width)
	return c.payloads(t)[i*w : i*w+w : i*w+w]
}

// cellsOf returns the total number of cells of t.
func (c *Chain[P]) cellsOf(t *table[P]) int { return t.buckets() * int(c.f.d) }

// newTable returns a table of the given length (see tableLength). Every
// table gets a distinct deterministic seed so merged tables re-randomise
// their hash functions, as cuckoo rebuilds require.
func (c *Chain[P]) newTable(length int) table[P] {
	c.seed = c.seed*6364136223846793005 + 1442695040888963407
	t := table[P]{a1: uint32(tableLength(length)), rng: *hashutil.NewRNG(c.seed)}
	t.seed = t.rng.Next()
	t.cells = unsafe.SliceData(make([]uint64, t.buckets()*int(c.f.stride)))
	t.vals = unsafe.SliceData(make([]P, t.buckets()*int(c.f.d)*int(c.f.width)))
	return t
}

// tableLength rounds a requested table length to one a table can have:
// 1, or even so that the arrays keep the 2:1 ratio.
func tableLength(length int) int {
	if length <= 1 {
		return 1
	}
	return length + length%2
}

// SWAR constants: the broadcast and per-lane high-bit masks of 8 byte
// lanes in a tag word.
const (
	tagLSB uint64 = 0x0101010101010101
	tagMSB uint64 = 0x8080808080808080
)

// tagOf derives a cell's fingerprint tag from the key's 64-bit hash.
// Tag zero marks an empty cell, so hash byte 0 is remapped; the tag is
// taken from the top byte of h, which remix scrambles before deriving
// bucket indexes, so tag and bucket stay effectively independent.
func tagOf(h uint64) byte {
	if t := byte(h >> 56); t != 0 {
		return t
	}
	return 0xFF
}

// zeroBytes returns a mask with the high bit set in exactly the bytes
// of x that are zero. This is the exact (Mycroft) form: the per-byte
// add can never carry across lanes, so — unlike the subtract-borrow
// shortcut — a 0x01 byte above a zero byte is not a false positive.
func zeroBytes(x uint64) uint64 {
	return ^(((x & ^tagMSB) + ^tagMSB) | x) & tagMSB
}

// laneMask keeps the low `lanes` byte-lane markers of a zeroBytes mask.
func laneMask(lanes int) uint64 {
	return tagMSB >> (8 * (8 - lanes))
}

// remix folds a table's seed into the chain-level hash, yielding 64
// fresh bits per table from one Key64 of the key. Its halves become
// the per-array bucket indexes after multiply-shift range reduction
// (h·m >> 32 — cheaper than a modulo and equally uniform). No
// per-table key re-hash happens anywhere on the probe path.
func remix(h, seed uint64) uint64 {
	x := h ^ seed
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// bucketPair derives the key's two candidate buckets (as global bucket
// indexes: array 2 starts at a1) from the remixed hash halves.
func (t *table[P]) bucketPair(x uint64) (b1, b2 int) {
	a1 := uint64(t.a1)
	b1 = int(uint64(uint32(x)) * a1 >> 32)
	b2 = int(a1 + uint64(uint32(x>>32))*((a1+1)>>1)>>32)
	return b1, b2
}

// tagAt returns the fingerprint tag of cell c in bucket b.
func (c *Chain[P]) tagAt(cells []uint64, b, cell int) byte {
	return byte(cells[b*int(c.f.stride)+cell>>3] >> ((cell & 7) * 8))
}

// setTag writes cell c of bucket b's fingerprint tag.
func (c *Chain[P]) setTag(cells []uint64, b, cell int, tag byte) {
	w := &cells[b*int(c.f.stride)+cell>>3]
	shift := (cell & 7) * 8
	*w = *w&^(0xFF<<shift) | uint64(tag)<<shift
}

// findIn returns the flat cell index of key (whose chain-level hash is
// h) in t, or -1. Candidate cells are pre-filtered by fingerprint tag;
// the full key compare decides, so a tag collision costs one extra
// load — from the cache line right after the tag word. The d=8 default
// is fully unrolled: one tag word, eight adjacent keys, and the second
// bucket is not derived unless the first rejects.
func (c *Chain[P]) findIn(t *table[P], h, key uint64) int {
	pat := uint64(tagOf(h)) * tagLSB
	x := remix(h, t.seed)
	cells := c.words(t)
	if c.f.d == 8 {
		a1 := uint64(t.a1)
		b := int(uint64(uint32(x)) * a1 >> 32)
		base := b * 9
		m := zeroBytes(cells[base] ^ pat)
		for m != 0 {
			i := bits.TrailingZeros64(m) >> 3
			if cells[base+1+i] == key {
				return b*8 + i
			}
			m &= m - 1
		}
		b = int(a1 + uint64(uint32(x>>32))*((a1+1)>>1)>>32)
		base = b * 9
		m = zeroBytes(cells[base] ^ pat)
		for m != 0 {
			i := bits.TrailingZeros64(m) >> 3
			if cells[base+1+i] == key {
				return b*8 + i
			}
			m &= m - 1
		}
		return -1
	}
	b1, b2 := t.bucketPair(x)
	if i := c.probeBucket(cells, b1, pat, key); i >= 0 {
		return i
	}
	return c.probeBucket(cells, b2, pat, key)
}

// probeBucket scans one bucket's tag word(s) for pat, verifying
// candidates against the full key; it returns the flat cell index or
// -1. Unused lanes of a partial tag word hold 0 and pat is never 0, so
// they can't match and need no masking here.
func (c *Chain[P]) probeBucket(cells []uint64, b int, pat, key uint64) int {
	tw, d := int(c.f.tw), int(c.f.d)
	base := b * int(c.f.stride)
	for w := 0; w < tw; w++ {
		m := zeroBytes(cells[base+w] ^ pat)
		for m != 0 {
			i := w*8 + bits.TrailingZeros64(m)>>3
			if cells[base+tw+i] == key {
				return b*d + i
			}
			m &= m - 1
		}
	}
	return -1
}

// emptyIn returns the in-bucket cell index of the first empty cell in
// bucket b, or -1, and how many of its cells are empty. Unused lanes of
// a partial tag word would read as "empty", so they are masked off.
func (c *Chain[P]) emptyIn(cells []uint64, b int) (cell, free int) {
	tw, d := int(c.f.tw), int(c.f.d)
	base := b * int(c.f.stride)
	cell = -1
	for w := 0; w < tw; w++ {
		m := zeroBytes(cells[base+w])
		if rem := d - w*8; rem < 8 {
			m &= laneMask(rem)
		}
		if cell < 0 && m != 0 {
			cell = w*8 + bits.TrailingZeros64(m)>>3
		}
		free += bits.OnesCount64(m)
	}
	return cell, free
}

// insertIn stores ⟨key,row⟩ (h is the key's chain-level hash, row the
// cell's `width` payload elements) in t, kicking residents per the
// cuckoo discipline for at most maxKicks rounds (T; 0 in a merge). row
// is the caller's buffer and insertIn's scratch: every kick swaps the
// evicted cell's payload into it. On success ok is true. On failure ok
// is false and the item left without a home (which, after kicking, is
// generally NOT the argument pair) is the returned key with its payload
// in row; the caller is expected to park it in a denylist (§III-A2). The
// caller must ensure key is not already present. A kicked victim keeps
// its tag byte — only its buckets are re-derived, from its key's Key64.
func (c *Chain[P]) insertIn(t *table[P], h, key uint64, row []P, maxKicks int) (homeless uint64, ok bool) {
	cells, vals := c.words(t), c.payloads(t)
	f := c.f
	d, tw, stride, width := int(f.d), int(f.tw), int(f.stride), int(f.width)
	// The row's first element rides in a local like the key and the tag:
	// at width 1 — every S-CHT — a kick then swaps through no memory but
	// the cell's.
	head, rest := row[0], row[1:width]
	curH, curKey := h, key
	curTag := tagOf(h)
	array := 1
	for kick := 0; ; kick++ {
		// Try both candidate buckets for an empty cell first: b1 unless it
		// is full, so most hits are found in the bucket a probe reads
		// first; a merge, which cannot kick, takes the emptier one instead
		// so that fewer entries overflow.
		b1, b2 := t.bucketPair(remix(curH, t.seed))
		b := b1
		cell, free := c.emptyIn(cells, b1)
		if free == 0 || maxKicks == 0 {
			if cell2, free2 := c.emptyIn(cells, b2); free2 > free {
				b, cell = b2, cell2
			}
		}
		if cell >= 0 {
			cells[b*stride+tw+cell] = curKey
			at := (b*d + cell) * width
			vals[at] = head
			if len(rest) != 0 {
				copy(vals[at+1:at+width], rest)
			}
			c.setTag(cells, b, cell, curTag)
			t.size++
			f.placements++
			return 0, true
		}
		if kick == maxKicks {
			row[0] = head
			return curKey, false
		}
		// Both buckets full: evict a random resident from the bucket in
		// the current array and continue with the victim in the other.
		b = b1
		if array == 2 {
			b = b2
		}
		cell = t.rng.Intn(d)
		kr := &cells[b*stride+tw+cell]
		*kr, curKey = curKey, *kr
		at := (b*d + cell) * width
		vals[at], head = head, vals[at]
		if len(rest) != 0 {
			vr := vals[at+1:][:len(rest)]
			for j := range rest {
				vr[j], rest[j] = rest[j], vr[j]
			}
		}
		oldTag := c.tagAt(cells, b, cell)
		c.setTag(cells, b, cell, curTag)
		curTag = oldTag
		curH = hashutil.Key64(curKey)
		f.kicks++
		array = 3 - array
	}
}

// clearIn empties the flat cell index i of t.
func (c *Chain[P]) clearIn(t *table[P], i int) {
	d := int(c.f.d)
	b := i / d
	cell := i - b*d
	cells := c.words(t)
	cells[b*int(c.f.stride)+int(c.f.tw)+cell] = 0
	clear(c.rowIn(t, i))
	c.setTag(cells, b, cell, 0)
	t.size--
}

// decode is THE decoder of occupied lanes, the lanes whose tag is not
// zero; the unused lanes of a partial tag word hold tag 0, so they read
// as empty with no mask. It reads a run of t's tag words from word w of
// bucket b on and returns the run's occupancy as one mask, bit 8·j+i
// set when lane i of the run's j-th word holds a cell, and where the
// next run starts (b == t.buckets() once the table is done). A run is
// at most eight words: eight buckets when a bucket has one tag word
// (d ≤ 8), else words of bucket b alone. No branch depends on a tag, so a scan
// over the mask's set bits has one hard-to-predict exit per run
// instead of one per bucket. runGaps says where the cell of a set bit
// is.
func (c *Chain[P]) decode(t *table[P], b, w int) (occ uint64, nb, nw int) {
	f := c.f
	cells := c.words(t)
	stride, buckets := int(f.stride), t.buckets()
	if f.tw == 1 {
		for j, at := 0, b*stride; j < 64 && b < buckets; j, at, b = j+8, at+stride, b+1 {
			occ |= packLanes(cells[at]) << j
		}
		return occ, b, 0
	}
	tw := int(f.tw)
	for j := 0; j < 64 && w < tw; j, w = j+8, w+1 {
		occ |= packLanes(cells[b*stride+w]) << j
	}
	if w == tw {
		b, w = b+1, 0
	}
	return occ, b, w
}

// packLanes packs the occupancy of tag word x into its low byte, lane
// i into bit i: the multiply gathers the high bit of byte i of the
// occupied-lane markers into bit 56+i, and no two of its partial
// products meet.
func packLanes(x uint64) uint64 {
	return ((tagMSB &^ zeroBytes(x)) >> 7) * 0x0102040810204080 >> 56
}

// runGaps returns where the cell of bit k of a run's occupancy is: its
// key is word k + (k>>3)·keys on from the key of the run's first lane,
// its cell index k + (k>>3)·cells on from that lane's. Consecutive words
// of a run are a bucket apart when a bucket has one tag word, eight
// lanes apart inside a bucket otherwise.
func (f *Family) runGaps() (keys, cells int) {
	if f.tw == 1 {
		return int(f.stride) - 8, int(f.d) - 8
	}
	return 0, 0
}

// forEachIn calls fn for every entry stored in t, in bucket then lane
// order, with a pointer to its payload in place (the first element of
// its row), until fn returns false. It reports whether the scan ran to
// completion.
func (c *Chain[P]) forEachIn(t *table[P], fn func(key uint64, val *P) bool) bool {
	cells, vals := c.words(t), c.payloads(t)
	f := c.f
	d, tw, stride, width := int(f.d), int(f.tw), int(f.stride), int(f.width)
	keyGap, cellGap := f.runGaps()
	for b, w, end := 0, 0, t.buckets(); b < end; {
		keys, row := cells[b*stride+tw+w*8:], vals[(b*d+w*8)*width:]
		var occ uint64
		occ, b, w = c.decode(t, b, w)
		if !visitRefs(occ, keys, row, keyGap, cellGap, width, fn) {
			return false
		}
	}
	return true
}

// visitRefs is visitKeys for forEachIn: fn also gets a pointer to the
// first element of the cell's payload row, row[0] being the run's first
// cell's. It is kept out of line for the same reason.
//
//go:noinline
func visitRefs[P any](occ uint64, keys []uint64, row []P, keyGap, cellGap, width int, fn func(key uint64, val *P) bool) bool {
	for ; occ != 0; occ &= occ - 1 {
		k := bits.TrailingZeros64(occ)
		if !fn(keys[k+(k>>3)*keyGap], &row[(k+(k>>3)*cellGap)*width]) {
			return false
		}
	}
	return true
}

// memoryBytes returns the structural bytes of t assuming payloadBytes
// per payload: 8 B key + payload + 1 B fingerprint tag per cell, plus
// the paper's fixed 64 B of header words per table. The tag byte
// replaces the retired 1 B/cell occupancy flag — tags mark occupancy
// (0 = empty) AND pre-filter probes, so the layout change is
// space-neutral. (For d not a multiple of 8 the physical tag word
// carries unused padding lanes; the model counts the information
// content, 1 B per cell, matching the paper's cell-layout accounting.)
func (c *Chain[P]) memoryBytes(t *table[P], payloadBytes int) uint64 {
	return uint64(c.cellsOf(t))*uint64(8+payloadBytes+1) + 64
}

package cuckoo

import (
	"math/bits"
	"slices"
	"unsafe"

	"cuckoograph/internal/hashutil"
)

// Chain is a sequence of cuckoo tables managed by the paper's
// TRANSFORMATION technique (§III-A1, Table II). The first table ("1st
// S-CHT") is the largest; later tables are enabled as the loading rate of
// the active (newest) table reaches G; when R tables exist and the last
// fills up, all tables merge into a doubled first table plus a fresh
// second. Reverse transformation contracts the chain as deletions bring
// the overall loading rate below Λ.
//
// A Chain backs both every per-node S-CHT chain and the L-CHT itself.
//
// Probing is hash-once: an operation computes hashutil.Key64(key) a
// single time and every table in the chain derives its buckets from
// that one value (mixed with the table's private seed), so a chain-wide
// lookup costs one hash however many tables — at most R, two buckets
// each — it has to touch (the bounded memory-access guarantee of §V-D's
// analysis). The *Hashed variants let callers that already hold the
// hash skip even that one computation.
//
// A chain is one 64-byte object, everything a lookup reads of it in one
// cache line (see the package comment).
type Chain[P any] struct {
	f     *Family
	first table[P]
	// rest points at the records of tables 2..r, one array of restLen
	// allocated by the Grow that enables the second table and dropped
	// when the chain is back to one. Its live records come first and
	// are the ones with cell storage; the rest are zero.
	rest *table[P]
	seed uint64 // LCG state the table seeds are drawn from
}

// Family is the block that chains made for one purpose share: the
// shape of their tables and the parameters of the transformation rule,
// which every operation reads, and the lifetime counters every operation
// adds to. An engine keeps one for all its S-CHTs; NewChain and
// NewRowChain give each chain a family of its own, so the counters are
// the chain's.
type Family struct {
	d, tw, stride uint16 // cells, tag words and words per bucket (stride = tw + d)
	width         uint16 // payload elements per cell (a cell's row)
	maxKicks      uint16 // T
	r             uint8  // the most tables a chain may hold
	restLen       uint8  // records behind rest, max(r, 2)-1: a merge leaves two tables whatever R is
	base          uint32 // n, even: Table II's first length (see opening)
	g, lambda     float64

	kicks      uint64 // relocation attempts, for the §IV measurement
	placements uint64 // successful cell placements, incl. re-homing moves
	transforms uint64 // Grow + reverse transformations
}

// NewFamily returns the family of chains whose first table has length
// base (rounded up to even, at least 2) and whose cells each carry a
// row of width P (1 ≤ width ≤ 65535). cfg.Seed is not the family's:
// each chain takes its own.
func NewFamily(base, width int, cfg Config) *Family {
	cfg = cfg.Defaults()
	if cfg.D < 1 || cfg.D > 1<<15 || cfg.R < 1 || cfg.R > 255 || cfg.MaxKicks < 0 || cfg.MaxKicks > 1<<16-1 ||
		width < 1 || width > 1<<16-1 {
		panic("cuckoo: Config out of range")
	}
	tw := (cfg.D + 7) / 8
	return &Family{
		d: uint16(cfg.D), tw: uint16(tw), stride: uint16(tw + cfg.D),
		width: uint16(width), maxKicks: uint16(cfg.MaxKicks), r: uint8(cfg.R), restLen: uint8(max(cfg.R, 2) - 1),
		base: uint32(tableLength(max(base, 2))), g: cfg.G, lambda: cfg.Lambda,
	}
}

// opening returns the length a chain of f opens at: its base n, but
// n/2 = 1, one bucket per array, for n = 2 (a node's S-CHT starts with
// 7 entries, load 0.29 at n); Grow rebuilds it in place at n.
func (f *Family) opening() int {
	if f.base == 2 {
		return 1
	}
	return int(f.base)
}

// Kicks, Placements and Transformations are the Chain counters of those
// names, summed over every chain the family has had, dropped ones too.
func (f *Family) Kicks() uint64           { return f.kicks }
func (f *Family) Placements() uint64      { return f.placements }
func (f *Family) Transformations() uint64 { return f.transforms }

// NewChain returns a chain of base length base, each cell carrying one
// P, in a family of its own.
func NewChain[P any](base int, cfg Config) *Chain[P] { return NewRowChain[P](base, 1, cfg) }

// NewRowChain returns a chain of base length base whose cells each
// carry a row of width P (1 ≤ width ≤ 65535), in a family of its own.
// Rows go in through InsertRow and are read through RowHashed; At and
// ForEachRef see a row's first element.
func NewRowChain[P any](base, width int, cfg Config) *Chain[P] {
	return NewChainIn[P](NewFamily(base, width, cfg), cfg.Seed)
}

// NewChainIn returns a chain of family f holding a single table of
// length f.opening(). seed starts the sequence its table seeds are
// drawn from; 0 stands for Config's default, as it does there.
func NewChainIn[P any](f *Family, seed uint64) *Chain[P] {
	if seed == 0 {
		seed = Config{}.Defaults().Seed
	}
	c := &Chain[P]{f: f, seed: seed}
	c.first = c.newTable(f.opening())
	return c
}

// slots returns the whole array behind rest, live tables and spare
// records alike.
func (c *Chain[P]) slots() []table[P] {
	if c.rest == nil {
		return nil
	}
	return unsafe.Slice(c.rest, c.f.restLen)
}

// tab returns the i-th table of the chain, 0 ≤ i < Tables().
func (c *Chain[P]) tab(i int) *table[P] {
	if i == 0 {
		return &c.first
	}
	return &unsafe.Slice(c.rest, i)[i-1]
}

// live returns how many records behind rest hold a table.
func (c *Chain[P]) live() int {
	n, s := 0, c.slots()
	for n < len(s) && s[n].cells != nil {
		n++
	}
	return n
}

// active returns the newest table, the one insertions go to.
func (c *Chain[P]) active() *table[P] { return c.tab(c.live()) }

// Tables returns the number of tables currently in the chain.
func (c *Chain[P]) Tables() int { return 1 + c.live() }

// Lengths returns the lengths of the tables, first to last. The sequence
// follows Table II of the paper, which the test suite verifies.
func (c *Chain[P]) Lengths() []int {
	out := make([]int, c.Tables())
	for i := range out {
		out[i] = c.tab(i).length()
	}
	return out
}

// Size returns the total number of stored entries. It and Cells sum
// spare records too: those are zero, so they add nothing.
func (c *Chain[P]) Size() int {
	n, s := int(c.first.size), c.slots()
	for i := range s {
		n += int(s[i].size)
	}
	return n
}

// Cells returns the total cells across the chain.
func (c *Chain[P]) Cells() int {
	b, s := c.first.buckets(), c.slots()
	for i := range s {
		b += s[i].buckets()
	}
	return b * int(c.f.d)
}

// TableLoad returns the cells and the entries of the i-th table of the
// chain, 0 ≤ i < Tables().
func (c *Chain[P]) TableLoad(i int) (cells, entries int) {
	t := c.tab(i)
	return c.cellsOf(t), int(t.size)
}

// OverallLoadRate is the chain-wide LR used by reverse transformation.
func (c *Chain[P]) OverallLoadRate() float64 {
	return float64(c.Size()) / float64(c.Cells())
}

// Kicks returns cumulative relocation attempts over the family's whole
// lifetime, including tables that have since been merged away. Together
// with Placements it yields the paper's "average number of insertions
// per item" measurement (§IV-A).
func (c *Chain[P]) Kicks() uint64 { return c.f.kicks }

// Placements returns the number of successful cell placements performed,
// including the internal moves of merges and contractions.
func (c *Chain[P]) Placements() uint64 { return c.f.placements }

// Transformations returns how many forward or reverse transformations
// the chain's family has performed.
func (c *Chain[P]) Transformations() uint64 { return c.f.transforms }

// Pos names one occupied cell of a chain — its table and the cell's
// flat index there, in one word — or, negative, none. It is what
// FindHashed returns and what At and DeleteAt act on without probing
// again, and it is valid until the chain is next mutated.
type Pos int64

const posTableShift = 48

// Found reports whether the probe that produced p found its key.
func (p Pos) Found() bool { return p >= 0 }

func (p Pos) table() int { return int(p >> posTableShift) }
func (p Pos) cell() int  { return int(p & (1<<posTableShift - 1)) }

// FindHashed probes every table in the chain with one shared hash (h is
// key's Key64) and returns where key is stored.
func (c *Chain[P]) FindHashed(h, key uint64) Pos {
	if i := c.findIn(&c.first, h, key); i >= 0 {
		return Pos(i)
	}
	s := c.slots()
	for j := 0; j < len(s) && s[j].cells != nil; j++ {
		if i := c.findIn(&s[j], h, key); i >= 0 {
			return Pos(j+1)<<posTableShift | Pos(i)
		}
	}
	return -1
}

// At returns a mutable pointer to the payload of the cell at p (which
// must be Found) — the first element of its row — so callers can update
// it in place: the weighted version bumps w without a second probe. It
// sits on the hit path of every chained read, and decodes p by hand to
// stay within the inliner's budget.
func (c *Chain[P]) At(p Pos) *P {
	return &c.payloads(c.tab(int(p >> posTableShift)))[int(p&(1<<posTableShift-1))*int(c.f.width)]
}

// RowHashed probes like FindHashed and returns the payload row stored
// under key (h is its Key64), in place and mutable, or nil. The row is
// valid until the chain is next mutated.
func (c *Chain[P]) RowHashed(h, key uint64) []P {
	if i := c.findIn(&c.first, h, key); i >= 0 {
		return c.rowIn(&c.first, i)
	}
	s := c.slots()
	for j := 0; j < len(s) && s[j].cells != nil; j++ {
		if i := c.findIn(&s[j], h, key); i >= 0 {
			return c.rowIn(&s[j], i)
		}
	}
	return nil
}

// Contains reports whether key is stored anywhere in the chain.
func (c *Chain[P]) Contains(key uint64) bool {
	return c.FindHashed(hashutil.Key64(key), key).Found()
}

// atG reports whether the LR of t, the active table, has reached G, i.e.
// a Grow transformation should run before the next insertion (§III-A1:
// "if the growing l causes the LR of the S-CHT to reach the preset
// threshold G before the current v arrives").
func (c *Chain[P]) atG(t *table[P]) bool {
	return float64(t.size)/float64(c.cellsOf(t)) >= c.f.g
}

// Grow applies one step of the transformation rule:
//
//   - a lone table shorter than the base length (the opening table of a
//     base-2 chain): rebuild it in place at the base length, re-homing
//     its entries with the usual T kicks.
//   - fewer than R tables: enable the next table. Its length is half the
//     first table's length when only one table exists, otherwise it
//     matches the most recently enabled table (Table II: n → n,n/2 →
//     n,n/2,n/2 and 2n,n → 2n,n,n).
//   - R tables: merge everything into a new first table of twice the old
//     first length and enable a fresh second table of the old first
//     length (Table II: n,n/2,n/2 → 2n,n).
//
// A merge puts each entry in the emptier of its two buckets in the
// merged table, kicking nothing; an entry whose buckets are both full
// goes to the fresh second table with the usual T kicks. What either
// leaves homeless is returned as leftovers for the caller's denylist.
func (c *Chain[P]) Grow() (leftovers []Entry[P]) {
	c.f.transforms++
	n := c.Tables()
	if n == 1 && c.first.length() < int(c.f.base) {
		old := c.first
		c.first = c.newTable(int(c.f.base))
		return c.rehomeAll(&old)
	}
	if n < int(c.f.r) {
		length := c.first.length() / 2
		if n > 1 {
			length = c.active().length()
		}
		c.enable(c.newTable(length))
		return nil
	}
	// Both new tables exist before anything moves (merged first, as
	// seeds go). The old tables are read in place while they fill: they
	// are garbage as soon as the loop ends, so nothing is drained into a
	// buffer first — and each old row is the scratch its own insertion
	// kicks into.
	merged := c.newTable(c.first.length() * 2)
	second := c.newTable(merged.length() / 2)
	for i := 0; i < n; i++ {
		c.forEachIn(c.tab(i), func(key uint64, val *P) bool {
			row, h := unsafe.Slice(val, c.f.width), hashutil.Key64(key)
			if _, ok := c.insertIn(&merged, h, key, row, 0); !ok {
				if lo, ok := c.insertIn(&second, h, key, row, int(c.f.maxKicks)); !ok {
					leftovers = appendRow(leftovers, lo, row)
				}
			}
			return true
		})
	}
	c.first = merged
	clear(c.slots())
	c.enable(second)
	return leftovers
}

// enable appends the fresh table t to the chain.
func (c *Chain[P]) enable(t table[P]) {
	if c.rest == nil {
		c.rest = unsafe.SliceData(make([]table[P], c.f.restLen))
	}
	c.slots()[c.live()] = t
}

// appendRow appends the homeless cell ⟨key,row⟩ to leftovers, one entry
// per row element (see Entry).
func appendRow[P any](leftovers []Entry[P], key uint64, row []P) []Entry[P] {
	for _, val := range row {
		leftovers = append(leftovers, Entry[P]{Key: key, Val: val})
	}
	return leftovers
}

// Insert stores ⟨key,val⟩, hashing the key itself. See InsertRowHashed.
func (c *Chain[P]) Insert(key uint64, val P) (leftovers []Entry[P], grew bool) {
	return c.InsertHashed(hashutil.Key64(key), key, val)
}

// InsertHashed is InsertRowHashed for a chain of payload width 1.
func (c *Chain[P]) InsertHashed(h, key uint64, val P) (leftovers []Entry[P], grew bool) {
	row := [1]P{val}
	return c.InsertRowHashed(h, key, row[:])
}

// InsertRow stores ⟨key,row⟩, hashing the key itself. See
// InsertRowHashed.
func (c *Chain[P]) InsertRow(key uint64, row []P) (leftovers []Entry[P], grew bool) {
	return c.InsertRowHashed(hashutil.Key64(key), key, row)
}

// InsertRowHashed stores key (h is its Key64 hash) with the payload
// row, whose length is the chain's width, growing the chain first if
// the active table is at threshold. row is copied into the cell and is
// the insertion's scratch meanwhile: its contents are unspecified
// afterwards. grew reports whether a transformation ran (the caller
// drains its denylist into the chain when it did). Every cell left
// homeless — whether the argument pair after kicking, or spill from a
// merge — is returned in leftovers for the caller's denylist; an empty
// slice means complete success. The caller must ensure key is not
// already present in the chain.
func (c *Chain[P]) InsertRowHashed(h, key uint64, row []P) (leftovers []Entry[P], grew bool) {
	t := c.active()
	if c.atG(t) {
		leftovers = c.Grow()
		grew = true
		t = c.active()
	}
	if lo, ok := c.insertIn(t, h, key, row, int(c.f.maxKicks)); !ok {
		leftovers = appendRow(leftovers, lo, row)
	}
	return leftovers, grew
}

// Delete removes key, hashing the key itself, and reports whether it
// was stored. See DeleteAt for the reverse transformation it may apply.
func (c *Chain[P]) Delete(key uint64) (leftovers []Entry[P], deleted bool) {
	p := c.FindHashed(hashutil.Key64(key), key)
	if !p.Found() {
		return nil, false
	}
	return c.DeleteAt(p), true
}

// DeleteAt removes the entry at p (which must be Found) and applies
// reverse transformation (§III-A1) when the overall LR drops below Λ:
// with two or more tables the table that held the entry is removed and
// its residents transferred to the others; with a single table longer
// than the length the chain opened at, the table is rebuilt at half
// length. Leftovers that cannot be re-homed are returned for the
// caller's denylist.
func (c *Chain[P]) DeleteAt(p Pos) (leftovers []Entry[P]) {
	held := p.table()
	c.clearIn(c.tab(held), p.cell())
	size, cells := c.Size(), c.Cells()
	if float64(size)/float64(cells) >= c.f.lambda {
		return nil
	}
	var victim table[P]
	if n := c.Tables(); n > 1 {
		// Contract only if the surviving tables can absorb the victim's
		// residents below the expansion threshold; otherwise deleting the
		// table would immediately re-trigger growth (thrash) and flood
		// the caller's denylist.
		otherCells := cells - c.cellsOf(c.tab(held))
		if float64(size) > float64(otherCells)*c.f.g {
			return nil
		}
		// Shift the later tables down and zero the vacated record, so
		// the removed table's arrays are garbage once its residents have
		// moved.
		victim = *c.tab(held)
		for i := held; i < n-1; i++ {
			*c.tab(i) = *c.tab(i + 1)
		}
		*c.tab(n - 1) = table[P]{}
		if n == 2 {
			c.rest = nil
		}
	} else {
		// Same guard: the halved table must hold everything below G.
		if c.first.length() <= c.f.opening() || float64(size) > float64(cells)/2*c.f.g {
			return nil
		}
		victim = c.first
		c.first = c.newTable(victim.length() / 2)
	}
	c.f.transforms++
	return c.rehomeAll(&victim)
}

// rehomeAll re-homes every resident of victim, a table that has left
// the chain, and returns what finds no home. Each resident's row in
// victim is its insertion's scratch: victim is garbage afterwards.
func (c *Chain[P]) rehomeAll(victim *table[P]) (leftovers []Entry[P]) {
	c.forEachIn(victim, func(key uint64, val *P) bool {
		row := unsafe.Slice(val, c.f.width)
		if lo, ok := c.rehome(key, row); !ok {
			leftovers = appendRow(leftovers, lo, row)
		}
		return true
	})
	return leftovers
}

// rehome tries to place ⟨key,row⟩ in any table of the chain, emptiest
// first. When an insert fails, the table has still absorbed the item and
// kicked out a different victim — its payload now in row — so the victim
// becomes the entry to place next; on total failure the final homeless
// key is returned.
func (c *Chain[P]) rehome(key uint64, row []P) (uint64, bool) {
	n := c.Tables()
	best, bestLR := 0, 2.0
	for i := 0; i < n; i++ {
		t := c.tab(i)
		if lr := float64(t.size) / float64(c.cellsOf(t)); lr < bestLR {
			best, bestLR = i, lr
		}
	}
	for off := 0; off < n; off++ {
		lo, ok := c.insertIn(c.tab((best+off)%n), hashutil.Key64(key), key, row, int(c.f.maxKicks))
		if ok {
			return 0, true
		}
		key = lo
	}
	return key, false
}

// ForEachRef calls fn for every entry with a pointer to its payload in
// place — the allocation-free iteration of the read path — until fn
// returns false. It reports whether the scan ran to completion. The
// pointers are valid only during the call.
func (c *Chain[P]) ForEachRef(fn func(key uint64, val *P) bool) bool {
	for i, n := 0, c.Tables(); i < n; i++ {
		if !c.forEachIn(c.tab(i), fn) {
			return false
		}
	}
	return true
}

// ForEachKey is ForEachRef for a caller that wants keys only: one call
// per entry, in ForEachRef's order, and no payload read.
func (c *Chain[P]) ForEachKey(fn func(key uint64) bool) bool {
	tw, stride := int(c.f.tw), int(c.f.stride)
	gap, _ := c.f.runGaps()
	for i, n := 0, c.Tables(); i < n; i++ {
		t := c.tab(i)
		cells := c.words(t)
		for b, w, end := 0, 0, t.buckets(); b < end; {
			keys := cells[b*stride+tw+w*8:]
			var occ uint64
			occ, b, w = c.decode(t, b, w)
			if !visitKeys(occ, keys, gap, fn) {
				return false
			}
		}
	}
	return true
}

// visitKeys calls fn with the key of every set bit of occ, a run's
// occupancy whose first key is keys[0] (see runGaps), until fn returns
// false, and reports whether it did not. It is kept out of line on
// purpose: Go's calls save no registers, so inlined into ForEachKey the
// loop reloads every value live in the scan around each fn call; out of
// line only its own five are, and a scan of a 512-key chain runs ≈ 20 %
// faster.
//
//go:noinline
func visitKeys(occ uint64, keys []uint64, gap int, fn func(key uint64) bool) bool {
	for ; occ != 0; occ &= occ - 1 {
		k := bits.TrailingZeros64(occ)
		if !fn(keys[k+(k>>3)*gap]) {
			return false
		}
	}
	return true
}

// AppendKeys appends every key to dst, in ForEachRef's order, and
// returns the extended slice; dst grows at most once. Like append, it
// writes nothing past the returned length.
func (c *Chain[P]) AppendKeys(dst []uint64) []uint64 {
	dst = slices.Grow(dst, c.Size())
	tw, stride := int(c.f.tw), int(c.f.stride)
	gap, _ := c.f.runGaps()
	for i, n := 0, c.Tables(); i < n; i++ {
		t := c.tab(i)
		cells := c.words(t)
		for b, w, end := 0, 0, t.buckets(); b < end; {
			keys := cells[b*stride+tw+w*8:]
			var occ uint64
			occ, b, w = c.decode(t, b, w)
			for ; occ != 0; occ &= occ - 1 {
				k := bits.TrailingZeros64(occ)
				dst = append(dst, keys[k+(k>>3)*gap])
			}
		}
	}
	return dst
}

// MemoryBytes sums the structural bytes of all tables in the chain.
func (c *Chain[P]) MemoryBytes(payloadBytes int) uint64 {
	var sum uint64
	n := c.Tables()
	for i := 0; i < n; i++ {
		sum += c.memoryBytes(c.tab(i), payloadBytes)
	}
	// One header word per table for the chain's table array slot.
	return sum + uint64(n)*8
}

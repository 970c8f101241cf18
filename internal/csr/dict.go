package csr

import "math/bits"

// dict is the sparse → dense direction of the node dictionary: an
// open-addressed, linear-probing table from uint64 node ids to int32
// dense ids, 12 bytes a slot in two parallel arrays. A key's home slot is
// the top bits of its product with a 64-bit odd constant (multiply-shift),
// the capacity is a power of two, and the table doubles before an insert
// would lift its load past 3/4. There is no delete: an index is built
// once and then only read.
type dict struct {
	keys  []uint64
	vals  []int32 // dense id + 1; 0 marks an empty slot, so any key is storable
	n     int     // occupied slots
	shift uint    // 64 - log2(len(keys))
}

// newDict returns an empty table of the smallest capacity that holds hint
// keys at a load of at most 3/4.
func newDict(hint int) dict {
	capacity := 4
	for capacity*3 < hint*4 {
		capacity *= 2
	}
	return dict{
		keys:  make([]uint64, capacity),
		vals:  make([]int32, capacity),
		shift: uint(64 - bits.TrailingZeros(uint(capacity))),
	}
}

func (d *dict) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> d.shift) }

// find returns the slot that holds k, or the empty slot k would take.
func (d *dict) find(k uint64) (slot int, found bool) {
	mask := len(d.keys) - 1
	for i := d.home(k); ; i = (i + 1) & mask {
		if d.vals[i] == 0 || d.keys[i] == k {
			return i, d.vals[i] != 0
		}
	}
}

// get returns k's dense id.
func (d *dict) get(k uint64) (int32, bool) {
	i, found := d.find(k)
	return d.vals[i] - 1, found
}

// intern returns k's dense id, first storing next as that id when k is
// new: the caller learns which happened from whether the result is next.
func (d *dict) intern(k uint64, next int32) int32 {
	if (d.n+1)*4 > len(d.keys)*3 {
		d.grow()
	}
	i, found := d.find(k)
	if !found {
		d.keys[i], d.vals[i] = k, next+1
		d.n++
	}
	return d.vals[i] - 1
}

// grow doubles the table and re-places every key.
func (d *dict) grow() {
	old := *d
	*d = newDict(len(old.keys) + 1) // more keys than the old capacity: double it
	for i, v := range old.vals {
		if v != 0 {
			d.intern(old.keys[i], v-1)
		}
	}
}

package cuckoo

import (
	"testing"
	"unsafe"
)

// TestChainLayout guards the memory layout the probe path is built on:
// a chain header is 128 bytes, the allocator hands it out on a cache
// line boundary, and everything a lookup reads before it reaches a
// bucket — the shape words, the whole record of the first table, the
// pointer to the later tables — lies in the header's first 64 bytes.
// The layout does not depend on the payload type.
func TestChainLayout(t *testing.T) {
	var c Chain[[]uint64]
	if unsafe.Sizeof(c) != 128 || unsafe.Sizeof(Chain[struct{}]{}) != 128 {
		t.Fatalf("chain header is %d bytes (%d with an empty payload), want 128",
			unsafe.Sizeof(c), unsafe.Sizeof(Chain[struct{}]{}))
	}
	if unsafe.Sizeof(c.first) != 40 {
		t.Fatalf("table record is %d bytes, want 40", unsafe.Sizeof(c.first))
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"d", unsafe.Offsetof(c.d) + unsafe.Sizeof(c.d)},
		{"tw", unsafe.Offsetof(c.tw) + unsafe.Sizeof(c.tw)},
		{"stride", unsafe.Offsetof(c.stride) + unsafe.Sizeof(c.stride)},
		{"n", unsafe.Offsetof(c.n) + unsafe.Sizeof(c.n)},
		{"first", unsafe.Offsetof(c.first) + unsafe.Sizeof(c.first)},
		{"rest", unsafe.Offsetof(c.rest) + unsafe.Sizeof(c.rest)},
	} {
		if f.end > 64 {
			t.Errorf("field %s ends at byte %d, past the header's first cache line", f.name, f.end)
		}
	}
	for i := 0; i < 64; i++ {
		if at := uintptr(unsafe.Pointer(NewChain[uint64](2, Config{}))); at%64 != 0 {
			t.Fatalf("chain header allocated at %#x, not on a 64-byte boundary", at)
		}
	}
}

// TestEntryLayout pins Entry's field order: Go pads a struct whose last
// field is zero-sized, so with Key first a leftover of a chain with an
// empty payload was 16 bytes.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry[struct{}]{}); got != 8 {
		t.Fatalf("Entry[struct{}] is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Entry[uint64]{}); got != 16 {
		t.Fatalf("Entry[uint64] is %d bytes, want 16", got)
	}
}

package cuckoo

import (
	"testing"
	"unsafe"
)

// TestChainLayout guards the memory layout the probe path is built on:
// a chain is one 64-byte object, the allocator hands it out on a cache
// line boundary, and it holds everything a lookup reads before it
// reaches a bucket — the pointer to its family's shape, the whole
// record of the first table, the pointer to the later tables. The
// layout does not depend on the payload type.
func TestChainLayout(t *testing.T) {
	var c Chain[[]uint64]
	for _, size := range []uintptr{unsafe.Sizeof(c), unsafe.Sizeof(Chain[struct{}]{}), unsafe.Sizeof(Chain[uint64]{})} {
		if size != 64 {
			t.Fatalf("chain is %d bytes, want 64", size)
		}
	}
	if unsafe.Sizeof(c.first) != 40 {
		t.Fatalf("table record is %d bytes, want 40", unsafe.Sizeof(c.first))
	}
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"f", unsafe.Offsetof(c.f) + unsafe.Sizeof(c.f)},
		{"first", unsafe.Offsetof(c.first) + unsafe.Sizeof(c.first)},
		{"rest", unsafe.Offsetof(c.rest) + unsafe.Sizeof(c.rest)},
	} {
		if f.end > 64 {
			t.Errorf("field %s ends at byte %d, past the chain's cache line", f.name, f.end)
		}
	}
	fam := NewFamily(2, 1, Config{})
	for i := 0; i < 64; i++ {
		for _, at := range []uintptr{
			uintptr(unsafe.Pointer(NewChain[uint64](2, Config{}))),
			uintptr(unsafe.Pointer(NewChainIn[struct{}](fam, uint64(i)))),
		} {
			if at%64 != 0 {
				t.Fatalf("chain allocated at %#x, not on a 64-byte boundary", at)
			}
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

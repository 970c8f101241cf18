package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestSlotLayout guards the sizes the L-CHT cell and the S-DL are built
// on. Go pads a struct whose last field is zero-sized, so the field
// order of slot decides whether a basic small slot is the paper's 8
// bytes or 16; and a pointer anywhere inside the basic or weighted slot
// would make the collector scan every table that holds them.
func TestSlotLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"slot[struct{}]", unsafe.Sizeof(slot[struct{}]{}), 8},
		{"slot[uint64]", unsafe.Sizeof(slot[uint64]{}), 16},
		{"sdlEntry[struct{}]", unsafe.Sizeof(sdlEntry[struct{}]{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(slot[struct{}]{}), reflect.TypeOf(slot[uint64]{})} {
		if hasPointer(typ) {
			t.Errorf("%v holds a pointer: the collector would scan every table of them", typ)
		}
	}
	if !hasPointer(reflect.TypeOf(slot[[]uint64]{})) {
		t.Error("hasPointer misses the slice inside the multi-edge slot")
	}
}

// hasPointer reports whether a value of type t contains anything the
// garbage collector has to follow.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

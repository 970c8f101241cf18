package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// decodeAll reads every value out of the writer's assembled output.
func decodeAll(t *testing.T, w *Writer) []Value {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(w.Bytes()))
	var out []Value
	for {
		v, err := Read(r)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, v)
	}
}

// TestWriterEncodesEveryType: each Append* method emits wire bytes that
// the reference parser decodes back to the equivalent boxed value.
func TestWriterEncodesEveryType(t *testing.T) {
	var w Writer
	w.AppendSimple("OK")
	w.AppendError("ERR boom")
	w.AppendInt(-42)
	w.AppendBulkString("hello")
	w.AppendBulk([]byte("bytes"))
	w.AppendBulkUint(18446744073709551615)
	w.AppendNullBulk()
	w.AppendArrayHeader(2)
	w.AppendInt(1)
	w.AppendBulkUint(7)

	got := decodeAll(t, &w)
	want := []Value{
		Simple("OK"),
		Error("ERR boom"),
		Integer(-42),
		Bulk("hello"),
		Bulk("bytes"),
		Bulk("18446744073709551615"),
		NullBulk(),
		Array(Integer(1), Bulk("7")),
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if !valueEqual(got[i], want[i]) {
			t.Fatalf("value %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func valueEqual(a, b Value) bool {
	if a.Type != b.Type || a.Str != b.Str || a.Int != b.Int || a.Null != b.Null {
		return false
	}
	if len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !valueEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

// TestWriterAppendValueBridge: boxed Value trees (the cold introspection
// path) encode identically through the Writer and through Write.
func TestWriterAppendValueBridge(t *testing.T) {
	v := Array(
		Bulk("g.insert"),
		Integer(3),
		Array(Simple("write")),
		NullBulk(),
		Error("ERR nope"),
	)
	var w Writer
	w.AppendValue(v)

	var ref bytes.Buffer
	bw := bufio.NewWriter(&ref)
	if err := Write(bw, v); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("writer bytes %q != Write bytes %q", w.Bytes(), ref.Bytes())
	}
}

// TestWriterInvalidValueStaysFramed: the zero Value (a handler bug)
// must encode as a well-formed error reply, not desync the stream.
func TestWriterInvalidValueStaysFramed(t *testing.T) {
	var w Writer
	w.AppendValue(Value{})
	w.AppendSimple("OK")
	got := decodeAll(t, &w)
	if len(got) != 2 || got[0].Type != '-' || got[1].Str != "OK" {
		t.Fatalf("decoded %+v", got)
	}
}

// TestWriterMarkRewind: output appended after a Mark is discarded by
// Rewind, so a handler error after partial output can be replaced by
// one clean error reply.
func TestWriterMarkRewind(t *testing.T) {
	var w Writer
	w.AppendInt(1)
	m := w.Mark()
	w.AppendArrayHeader(3)
	w.AppendBulkString("partial")
	w.AppendBulk(bytes.Repeat([]byte("z"), 8<<10))
	w.Rewind(m)
	w.AppendError("ERR replaced")

	got := decodeAll(t, &w)
	if len(got) != 2 || got[0].Int != 1 || got[1].Str != "ERR replaced" {
		t.Fatalf("decoded %+v", got)
	}
}

// TestWriterSpliceError: a reply in the middle of the pending output is
// replaced by an error reply; what precedes and follows it still
// decodes, in order.
func TestWriterSpliceError(t *testing.T) {
	var w Writer
	big := bytes.Repeat([]byte("z"), 8<<10)
	w.AppendInt(1)
	from := w.Mark()
	w.AppendInt(2)
	to := w.Mark()
	w.AppendBulk(big)
	w.AppendInt(3)
	w.SpliceError(from, to, "WALERR taken back")

	got := decodeAll(t, &w)
	if len(got) != 4 || got[0].Int != 1 || got[1].Type != '-' || got[1].Str != "WALERR taken back" ||
		got[2].Str != string(big) || got[3].Int != 3 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestWriterErrorKeepsOneLine: CR and LF in an error message become
// spaces in AppendError and SpliceError alike, so a message that echoes
// client bytes stays one reply and cannot forge the next.
func TestWriterErrorKeepsOneLine(t *testing.T) {
	var w Writer
	w.AppendError("ERR unknown command 'a\r\n+OK'")
	from := w.Mark()
	w.AppendInt(2)
	w.SpliceError(from, w.Mark(), "WALERR bad\npath\r")
	w.AppendSimple("PONG")
	got := decodeAll(t, &w)
	if len(got) != 3 || got[0].Str != "ERR unknown command 'a  +OK'" ||
		got[1].Str != "WALERR bad path " || got[2].Str != "PONG" {
		t.Fatalf("decoded %+v", got)
	}
}

// TestWriterBulkCopies: a bulk payload of any size is copied at append
// time, so the caller may reuse its buffer before the flush.
func TestWriterBulkCopies(t *testing.T) {
	var w Writer
	payload := bytes.Repeat([]byte("a"), 8<<10)
	w.AppendBulk(payload)
	clear(payload)
	if got := decodeAll(t, &w); len(got) != 1 || got[0].Str != strings.Repeat("a", 8<<10) {
		t.Fatal("pending output aliases the caller's payload")
	}
}

// TestWriterResetShrinks: Reset keeps a modest buffer but sheds one
// inflated past the retention cap, mirroring the read-side
// grow-then-shrink.
func TestWriterResetShrinks(t *testing.T) {
	var w Writer
	w.AppendBulkString("small")
	w.Reset()
	if cap(w.buf) == 0 {
		t.Fatal("small buffer not retained across Reset")
	}
	w.AppendBulkString(strings.Repeat("x", retainedWriterBytes+1024))
	w.Reset()
	if cap(w.buf) > retainedWriterBytes {
		t.Fatalf("Reset retained cap=%d, want <= %d", cap(w.buf), retainedWriterBytes)
	}
}

// TestWriterAppendAllocs: steady-state appends into a warmed buffer are
// allocation-free — the property the serving plane is built on.
func TestWriterAppendAllocs(t *testing.T) {
	var w Writer
	payload := []byte("1234567890")
	allocs := testing.AllocsPerRun(200, func() {
		w.AppendSimple("OK")
		w.AppendInt(123456)
		w.AppendBulk(payload)
		w.AppendBulkUint(987654321)
		w.AppendArrayHeader(2)
		w.AppendNullBulk()
		w.AppendError("ERR bad\r\nline")
		w.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Append cycle allocates %.1f/run, want 0", allocs)
	}
}

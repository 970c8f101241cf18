package resp

import (
	"slices"
	"strconv"
)

// Writer is a streaming RESP reply encoder: replies are appended
// directly into a reusable buffer instead of being built as boxed Value
// trees and encoded afterwards. It is the serving plane's hot-path
// encoder — one Writer lives per connection, every Append* method is
// allocation-free once the buffer has warmed up, and Value survives
// only for cold introspection replies (COMMAND, G.INFO) via
// AppendValue.
//
// Large bulk payloads are not copied: AppendBulk records a reference
// and Vectors interleaves them with the buffer segments for a vectored
// (writev) flush. Callers handing AppendBulk a payload at or above
// zeroCopyBulk must keep it unmodified until the Writer is Reset.
//
// Mark/Rewind give dispatch transactional replies: a handler that
// errors after partial output is rewound to its mark and replaced by a
// single well-formed error reply, keeping pipelined connections in
// sync.
type Writer struct {
	buf      []byte
	refs     []bulkRef
	refBytes int
}

// bulkRef is one zero-copy payload spliced into the output stream after
// the first end bytes of buf.
type bulkRef struct {
	end     int // bytes of buf preceding the payload
	payload []byte
}

const (
	// zeroCopyBulk is the bulk payload size from which AppendBulk
	// references the caller's bytes instead of copying them.
	zeroCopyBulk = 4 << 10
	// retainedWriterBytes caps the buffer capacity a Reset keeps: one
	// huge introspection reply must not pin its buffer for the
	// connection's lifetime.
	retainedWriterBytes = 64 << 10
)

// Len reports the pending encoded bytes, zero-copy payloads included.
func (w *Writer) Len() int { return len(w.buf) + w.refBytes }

// HasRefs reports whether pending output references caller-owned
// payload bytes (see AppendBulk); those bytes must stay untouched until
// the next Reset.
func (w *Writer) HasRefs() bool { return len(w.refs) > 0 }

func (w *Writer) crlf() { w.buf = append(w.buf, '\r', '\n') }

// AppendSimple appends a simple-string reply ("+s\r\n").
func (w *Writer) AppendSimple(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.crlf()
}

// AppendError appends an error reply ("-msg\r\n").
func (w *Writer) AppendError(msg string) {
	w.buf = append(w.buf, '-')
	w.buf = append(w.buf, msg...)
	w.crlf()
}

// AppendInt appends an integer reply (":n\r\n").
func (w *Writer) AppendInt(n int64) {
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.crlf()
}

// AppendArrayHeader appends an array header ("*n\r\n"); the caller
// appends the n elements.
func (w *Writer) AppendArrayHeader(n int) {
	w.buf = append(w.buf, '*')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.crlf()
}

// AppendNullBulk appends the RESP2 null bulk ("$-1\r\n").
func (w *Writer) AppendNullBulk() {
	w.buf = append(w.buf, '$', '-', '1')
	w.crlf()
}

func (w *Writer) bulkHeader(n int) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.crlf()
}

// AppendBulk appends a bulk-string reply. Payloads of zeroCopyBulk
// bytes or more are referenced, not copied — the caller must keep them
// unmodified until the Writer is Reset (for a server reply: until the
// flush).
func (w *Writer) AppendBulk(b []byte) {
	w.bulkHeader(len(b))
	if len(b) >= zeroCopyBulk {
		w.refs = append(w.refs, bulkRef{end: len(w.buf), payload: b})
		w.refBytes += len(b)
	} else {
		w.buf = append(w.buf, b...)
	}
	w.crlf()
}

// AppendBulkString appends a bulk-string reply, always copying.
func (w *Writer) AppendBulkString(s string) {
	w.bulkHeader(len(s))
	w.buf = append(w.buf, s...)
	w.crlf()
}

// AppendBulkUint appends a decimal uint64 as a bulk string without
// going through an intermediate string.
func (w *Writer) AppendBulkUint(n uint64) {
	var tmp [20]byte
	d := strconv.AppendUint(tmp[:0], n, 10)
	w.bulkHeader(len(d))
	w.buf = append(w.buf, d...)
	w.crlf()
}

// AppendValue encodes a boxed Value — the bridge for cold introspection
// handlers that still build reply trees. An invalid Value (unknown
// Type, the zero Value included) encodes as an error reply rather than
// desyncing the stream.
func (w *Writer) AppendValue(v Value) {
	switch v.Type {
	case '+':
		w.AppendSimple(v.Str)
	case '-':
		w.AppendError(v.Str)
	case ':':
		w.AppendInt(v.Int)
	case '$':
		if v.Null {
			w.AppendNullBulk()
		} else {
			w.AppendBulkString(v.Str)
		}
	case '*':
		w.AppendArrayHeader(len(v.Array))
		for _, item := range v.Array {
			w.AppendValue(item)
		}
	default:
		w.AppendError("ERR protocol: invalid reply value")
	}
}

// Mark records the current output position for Rewind.
type Mark struct {
	buf, refs, refBytes int
}

// Mark returns the position of the next appended byte.
func (w *Writer) Mark() Mark {
	return Mark{buf: len(w.buf), refs: len(w.refs), refBytes: w.refBytes}
}

// Rewind truncates pending output back to m, discarding everything
// appended since the matching Mark.
func (w *Writer) Rewind(m Mark) {
	w.buf = w.buf[:m.buf]
	for i := m.refs; i < len(w.refs); i++ {
		w.refs[i].payload = nil
	}
	w.refs = w.refs[:m.refs]
	w.refBytes = m.refBytes
}

// SpliceError replaces everything appended between from and to — two
// marks taken in that order — with one error reply, shifting the output
// after it. The serving plane uses it to take back a reply it had
// already buffered; it copies the tail, so it is for cold paths.
func (w *Writer) SpliceError(from, to Mark, msg string) {
	repl := make([]byte, 0, len(msg)+3)
	repl = append(append(append(repl, '-'), msg...), '\r', '\n')
	w.buf = slices.Replace(w.buf, from.buf, to.buf, repl...)
	w.refs = slices.Delete(w.refs, from.refs, to.refs)
	for i := from.refs; i < len(w.refs); i++ {
		w.refs[i].end += len(repl) - (to.buf - from.buf)
	}
	w.refBytes -= to.refBytes - from.refBytes
}

// Reset discards pending output, keeping the buffer for reuse unless it
// grew past retainedWriterBytes (grow-then-shrink: a one-off giant
// reply must not pin its buffer forever).
func (w *Writer) Reset() {
	if cap(w.buf) > retainedWriterBytes {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	for i := range w.refs {
		w.refs[i].payload = nil
	}
	w.refs = w.refs[:0]
	w.refBytes = 0
}

// Vectors appends the pending output regions, in stream order, to dst —
// the writev segment list: buffer runs interleaved with zero-copy
// payloads. With no refs it appends the buffer as one segment.
func (w *Writer) Vectors(dst [][]byte) [][]byte {
	prev := 0
	for _, r := range w.refs {
		if r.end > prev {
			dst = append(dst, w.buf[prev:r.end])
		}
		dst = append(dst, r.payload)
		prev = r.end
	}
	if len(w.buf) > prev {
		dst = append(dst, w.buf[prev:])
	}
	return dst
}

// Bytes assembles the pending output into one contiguous slice. With no
// zero-copy refs it aliases the internal buffer (valid until the next
// append or Reset); otherwise it allocates — in-process callers only.
func (w *Writer) Bytes() []byte {
	if len(w.refs) == 0 {
		return w.buf
	}
	out := make([]byte, 0, w.Len())
	for _, seg := range w.Vectors(nil) {
		out = append(out, seg...)
	}
	return out
}

package resp

import (
	"slices"
	"strconv"
)

// Writer is a streaming RESP reply encoder: replies are appended
// directly into a reusable buffer instead of being built as boxed Value
// trees and encoded afterwards. It is the serving plane's hot-path
// encoder — one Writer lives per connection, every Append* method is
// allocation-free once the buffer has warmed up, and a boxed Value is
// encoded through AppendValue only on behalf of Write. Every payload is copied into the buffer, so pending
// output never aliases memory the caller goes on to reuse.
//
// Mark/Rewind give dispatch transactional replies: a handler that
// errors after partial output is rewound to its mark and replaced by a
// single well-formed error reply, keeping pipelined connections in
// sync.
type Writer struct {
	buf []byte
}

// retainedWriterBytes caps the buffer capacity a Reset keeps: one huge
// introspection reply must not pin its buffer for the connection's
// lifetime.
const retainedWriterBytes = 64 << 10

// Len reports the pending encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

func (w *Writer) crlf() { w.buf = append(w.buf, '\r', '\n') }

// AppendSimple appends a simple-string reply ("+s\r\n").
func (w *Writer) AppendSimple(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.crlf()
}

// AppendError appends an error reply ("-msg\r\n"). CR and LF in msg
// become spaces, as in Redis: an error can echo client bytes (a command
// name, a path), and a raw line break would end the reply early and
// pass the rest off as the next reply in the pipeline.
func (w *Writer) AppendError(msg string) {
	w.buf = appendLine(append(w.buf, '-'), msg)
	w.crlf()
}

// appendLine appends s to buf with every CR and LF replaced by a space.
func appendLine(buf []byte, s string) []byte {
	n := len(buf)
	buf = append(buf, s...)
	for i := n; i < len(buf); i++ {
		if buf[i] == '\r' || buf[i] == '\n' {
			buf[i] = ' '
		}
	}
	return buf
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

// AppendBulkHeader appends only the length line of a bulk string
// ("$n\r\n"), for a caller that writes the n payload bytes and the
// closing CRLF to the socket itself rather than through the buffer.
func (w *Writer) AppendBulkHeader(n int) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.crlf()
}

// AppendBulk appends a bulk-string reply.
func (w *Writer) AppendBulk(b []byte) {
	w.AppendBulkHeader(len(b))
	w.buf = append(w.buf, b...)
	w.crlf()
}

// AppendBulkString appends a bulk-string reply.
func (w *Writer) AppendBulkString(s string) {
	w.AppendBulkHeader(len(s))
	w.buf = append(w.buf, s...)
	w.crlf()
}

// AppendBulkUint appends a decimal uint64 as a bulk string without
// going through an intermediate string.
func (w *Writer) AppendBulkUint(n uint64) {
	var tmp [20]byte
	d := strconv.AppendUint(tmp[:0], n, 10)
	w.AppendBulkHeader(len(d))
	w.buf = append(w.buf, d...)
	w.crlf()
}

// AppendValue encodes a boxed Value, Write's encoder. An invalid Value (unknown
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

// Mark is an output position: the offset of the next appended byte.
type Mark int

// Mark returns the position of the next appended byte.
func (w *Writer) Mark() Mark { return Mark(len(w.buf)) }

// Rewind truncates pending output back to m, discarding everything
// appended since the matching Mark.
func (w *Writer) Rewind(m Mark) { w.buf = w.buf[:m] }

// SpliceError replaces everything appended between from and to — two
// marks taken in that order — with one error reply, shifting the output
// after it; msg is cleaned as in AppendError. The serving plane uses it
// to take back a reply it had already buffered; it copies the tail, so
// it is for cold paths.
func (w *Writer) SpliceError(from, to Mark, msg string) {
	repl := appendLine(append(make([]byte, 0, len(msg)+3), '-'), msg)
	w.buf = slices.Replace(w.buf, int(from), int(to), append(repl, '\r', '\n')...)
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
}

// Bytes returns the pending output. It aliases the internal buffer:
// valid until the next append or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

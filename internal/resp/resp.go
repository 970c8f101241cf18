// Package resp implements the Redis Serialization Protocol (RESP2) wire
// format: the encoding spoken by the redislike server and client used
// for the paper's Redis integration experiment (§V-F).
//
// The package has two sides. The server speaks through Conn: it parses
// pipelined requests into byte-slice views of its read buffer, its
// Writer appends replies directly into a reusable per-connection buffer
// (AppendInt, AppendBulk, ...), and Flush writes the accumulated
// replies with one write(2), so a warm command cycle allocates nothing.
// Both ends of the replication link use Conn too: a push and an ack are
// arrays of bulk strings, read with ReadRequest. The boxed Value tree
// with Read, Write and Command is the client side: cgcli, cgbench's
// fig17 and the tests build and decode whole replies with it.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Value is one RESP value. Exactly one interpretation applies per Type.
type Value struct {
	Type  byte // '+', '-', ':', '$', '*'
	Str   string
	Int   int64
	Array []Value
	Null  bool
}

// Convenience constructors.
func Simple(s string) Value   { return Value{Type: '+', Str: s} }
func Error(s string) Value    { return Value{Type: '-', Str: s} }
func Integer(n int64) Value   { return Value{Type: ':', Int: n} }
func Bulk(s string) Value     { return Value{Type: '$', Str: s} }
func NullBulk() Value         { return Value{Type: '$', Null: true} }
func Array(vs ...Value) Value { return Value{Type: '*', Array: vs} }

// ErrProtocol reports malformed wire data.
var ErrProtocol = errors.New("resp: protocol error")

// Wire-format sanity bounds. A length prefix is attacker-controlled
// bytes, so Read refuses implausible claims instead of allocating for
// them: without these caps a 13-byte line like "$2147483647\r\n" would
// allocate gigabytes before reading a single payload byte. The limits
// mirror Redis's own proto-max-bulk-len defaults, scaled to this
// repository's workloads.
const (
	// MaxBulkBytes is the largest accepted bulk-string payload.
	MaxBulkBytes = 64 << 20
	// MaxArrayLen is the largest accepted array element count.
	MaxArrayLen = 1 << 20
	// MaxDepth is the deepest accepted array nesting. Read recurses per
	// level, so without a bound a stream of "*1\r\n" repeated a few
	// million times would grow the goroutine stack to its fatal limit
	// and abort the process; no legitimate command nests anywhere near
	// this deep.
	MaxDepth = 32
	// MaxLineBytes bounds one protocol line (type byte to CRLF): length
	// prefixes are tiny and simple/error strings modest, so an endless
	// unterminated line is an attack, not a value — without this cap an
	// attacker streaming digits with no CRLF would grow the line buffer
	// without limit before the length checks ever ran.
	MaxLineBytes = 64 << 10
)

// Write encodes v to w through Writer.AppendValue, the serving plane's
// encoder, appending into w's free buffer space so that a value that
// fits costs no allocation. An invalid Value encodes as AppendValue's
// error reply.
func Write(w *bufio.Writer, v Value) error {
	e := Writer{buf: w.AvailableBuffer()}
	e.AppendValue(v)
	_, err := w.Write(e.buf)
	return err
}

// Read decodes one value from r.
func Read(r *bufio.Reader) (Value, error) { return readDepth(r, 0) }

func readDepth(r *bufio.Reader, depth int) (Value, error) {
	if depth > MaxDepth {
		return Value{}, fmt.Errorf("%w: nesting deeper than %d", ErrProtocol, MaxDepth)
	}
	t, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	line, err := readLine(r)
	if err != nil {
		return Value{}, err
	}
	switch t {
	case '+':
		return Simple(line), nil
	case '-':
		return Error(line), nil
	case ':':
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Integer(n), nil
	case '$':
		n, err := strconv.Atoi(line)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
		}
		if n < 0 {
			return NullBulk(), nil
		}
		if n > MaxBulkBytes {
			return Value{}, fmt.Errorf("%w: bulk length %d exceeds limit %d", ErrProtocol, n, MaxBulkBytes)
		}
		// Grow as the payload actually arrives, in bounded chunks: the
		// claimed length is unverified, and reserving it up front would
		// let idle connections each pin MaxBulkBytes with a 13-byte lie.
		const chunk = 64 << 10
		want := n + 2
		buf := make([]byte, 0, min(want, chunk))
		for len(buf) < want {
			start := len(buf)
			buf = slices.Grow(buf, min(want-start, chunk))[:start+min(want-start, chunk)]
			if _, err := io.ReadFull(r, buf[start:]); err != nil {
				return Value{}, err
			}
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk not CRLF-terminated", ErrProtocol)
		}
		return Bulk(string(buf[:n])), nil
	case '*':
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 {
			return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
		}
		if n > MaxArrayLen {
			return Value{}, fmt.Errorf("%w: array length %d exceeds limit %d", ErrProtocol, n, MaxArrayLen)
		}
		// Grow incrementally: the claimed count is unverified until the
		// elements actually arrive, so a lying prefix must not be able to
		// reserve MaxArrayLen values up front.
		arr := make([]Value, 0, min(n, 64))
		for i := 0; i < n; i++ {
			v, err := readDepth(r, depth+1)
			if err != nil {
				return Value{}, err
			}
			arr = append(arr, v)
		}
		return Value{Type: '*', Array: arr}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown type byte %q", ErrProtocol, t)
	}
}

func readLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > MaxLineBytes {
			return "", fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineBytes)
		}
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return "", fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return string(line[:len(line)-2]), nil
}

// Command encodes a client command as an array of bulk strings.
func Command(args ...string) Value {
	vs := make([]Value, len(args))
	for i, a := range args {
		vs[i] = Bulk(a)
	}
	return Array(vs...)
}

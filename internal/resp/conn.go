package resp

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by ReadRequest on a connection whose Abort has
// been called — the server is draining and no further commands are
// accepted on it.
var ErrAborted = errors.New("resp: connection aborted")

const (
	// readBufInit is the initial (and post-shrink) read buffer capacity.
	readBufInit = 4 << 10
	// retainedReadBytes caps the read buffer capacity kept once the
	// buffered input drains: a one-off huge command (a 10MB G.MINSERT)
	// grows the buffer for its own parse but must not pin that memory
	// for the connection's lifetime (grow-then-shrink).
	retainedReadBytes = 64 << 10
	// readChunk bounds each read-buffer growth step, so a length prefix
	// claiming MaxBulkBytes reserves memory only as payload arrives.
	readChunk = 64 << 10
	// maxRequestBytes bounds one command's wire size: a maximal bulk plus
	// a maximal array of node-id-sized elements ("$20\r\n", 20 digits,
	// CRLF: 27 bytes each). parseRequest caps each bulk and the element
	// count but not their product, so without it one unfinished command
	// could grow the read buffer without limit.
	maxRequestBytes = MaxBulkBytes + 32*MaxArrayLen
)

// Conn is one connection of the serving plane (a client's on the
// server, or either end of a replication link): a zero-allocation RESP
// request reader and a streaming reply Writer over the same socket.
// Requests are parsed in place — Args are views into the read buffer,
// valid until the next ReadRequest — and replies accumulate in W until
// Flush pushes them with one write.
//
// A connection spends most of its life idle waiting for the next
// command, and that wait must be unbounded — but once a command starts
// arriving, a peer stalling mid-frame would pin the connection forever.
// ReadRequest therefore waits for the first byte with no deadline and
// arms ReadTimeout only while the rest of the frame trickles in; Flush
// arms WriteTimeout so replying to a non-reading client errors out
// instead of hanging the serve loop.
type Conn struct {
	nc net.Conn

	// W buffers encoded replies until Flush.
	W Writer

	rbuf   []byte
	rpos   int
	req    Request
	filled bool

	// ReadTimeout bounds how long the rest of a command may take to
	// arrive after its first byte. Zero disables the bound.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush. Zero disables the bound.
	WriteTimeout time.Duration

	aborted atomic.Bool
}

// NewConn wraps nc. Deadlines are disabled until the timeout fields are
// set.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, rbuf: make([]byte, 0, readBufInit)}
}

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// NetConn exposes the underlying connection for a handler that writes
// past W (the replication shipper's vectored chunk writes and their
// deadlines). Reads never go to it: the read buffer may hold bytes the
// peer already sent, so every read goes through ReadRequest or Read.
// One goroutine may read (ReadRequest, Read) while another writes (W,
// Flush, Write, NetConn): the read and write state are disjoint.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Abort marks the connection as draining and interrupts a reader parked
// in ReadRequest's idle wait by expiring its read deadline. The store
// happens before the deadline poke, and ReadRequest re-checks the flag
// after clearing the deadline, so the two cannot interleave into a
// reader blocked forever past an Abort.
func (c *Conn) Abort() {
	c.aborted.Store(true)
	c.nc.SetReadDeadline(time.Now())
}

// Buffered reports how many request bytes are already in the read
// buffer — the pipelining signal: flush replies only when it reaches
// zero and the next read would block.
func (c *Conn) Buffered() int { return len(c.rbuf) - c.rpos }

// Filled reports whether the last ReadRequest had to read the socket,
// and so may have waited on the peer, rather than finding its whole
// command already buffered.
func (c *Conn) Filled() bool { return c.filled }

// ReadRequest decodes the next client command. The returned Request
// (and its argument views) is owned by the Conn and valid until the
// next ReadRequest. The wait for the first byte of a command is
// unbounded (an idle client is not an error); once a command has
// started, each further chunk must arrive within ReadTimeout.
func (c *Conn) ReadRequest() (*Request, error) {
	if c.aborted.Load() {
		return nil, ErrAborted
	}
	c.filled = false
	for {
		if c.rpos < len(c.rbuf) {
			args, n, err := parseRequest(c.rbuf[c.rpos:], c.req.Args[:0])
			if err == nil {
				c.req.Args = args
				c.rpos += n
				return &c.req, nil
			}
			if err != errIncomplete {
				return nil, err
			}
		} else if c.rpos > 0 {
			// Input fully drained: recycle the buffer, shrinking capacity a
			// large command inflated.
			c.rpos = 0
			if cap(c.rbuf) > retainedReadBytes {
				c.rbuf = make([]byte, 0, readBufInit)
			} else {
				c.rbuf = c.rbuf[:0]
			}
		}
		c.filled = true
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads more bytes from the socket into the buffer, growing (in
// bounded chunks) or compacting when full. The idle wait — no bytes of
// a next command buffered yet — is deadline-free; mid-command reads arm
// ReadTimeout. Everything buffered when fill is called belongs to one
// incomplete command; past maxRequestBytes of it the peer is refused
// with ErrProtocol rather than buffered further.
func (c *Conn) fill() error {
	if c.Buffered() >= maxRequestBytes {
		return fmt.Errorf("%w: command exceeds %d bytes", ErrProtocol, maxRequestBytes)
	}
	if len(c.rbuf) == cap(c.rbuf) {
		if c.rpos > 0 {
			// Compact consumed bytes away.
			n := copy(c.rbuf, c.rbuf[c.rpos:])
			c.rbuf = c.rbuf[:n]
			c.rpos = 0
		} else {
			c.rbuf = slices.Grow(c.rbuf, min(cap(c.rbuf)+1, readChunk))
		}
	}
	if c.rpos == len(c.rbuf) {
		// Idle: wait for the first byte of the next command unbounded.
		c.nc.SetReadDeadline(time.Time{})
		if c.aborted.Load() {
			// Abort raced the deadline clear; re-expire so the Read below
			// cannot park forever.
			c.nc.SetReadDeadline(time.Now())
		}
	} else if c.ReadTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.ReadTimeout))
	}
	n, err := c.nc.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
	c.rbuf = c.rbuf[:len(c.rbuf)+n]
	if err != nil {
		if c.aborted.Load() {
			return ErrAborted
		}
		if n > 0 {
			// Bytes arrived with the error; parse them first. The next fill
			// re-hits the error once the buffer is exhausted.
			return nil
		}
		return err
	}
	return nil
}

// Read reads what the peer sent past the last request ReadRequest
// returned: the buffered bytes first, then the socket. It arms no
// deadline. It lets a caller stream a raw payload that a request
// announced (a replication snapshot), or read the bytes ReadRequest
// refused as no request, which it leaves unread.
func (c *Conn) Read(p []byte) (int, error) {
	if c.rpos < len(c.rbuf) {
		n := copy(p, c.rbuf[c.rpos:])
		c.rpos += n
		return n, nil
	}
	return c.nc.Read(p)
}

// Flush pushes buffered replies to the socket with one write, under
// WriteTimeout.
func (c *Conn) Flush() error {
	if c.W.Len() == 0 {
		return nil
	}
	_, err := c.Write(c.W.buf)
	c.W.Reset()
	return err
}

// Write sends p to the peer under WriteTimeout, past W: for a handler
// that took the connection over and streams payloads it will not buffer.
func (c *Conn) Write(p []byte) (int, error) {
	if c.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.WriteTimeout))
	}
	return c.nc.Write(p)
}

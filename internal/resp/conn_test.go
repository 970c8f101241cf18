package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns a connected client/server TCP pair — real sockets, so
// deadline semantics match production exactly.
func tcpPair(t *testing.T) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { client.Close(); a.c.Close() })
	return client, a.c
}

func sendCommand(t *testing.T, c net.Conn, args ...string) {
	t.Helper()
	w := bufio.NewWriter(c)
	if err := Write(w, Command(args...)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func argStrings(req *Request) []string {
	out := make([]string, len(req.Args))
	for i, a := range req.Args {
		out[i] = string(a)
	}
	return out
}

// TestAbortWakesIdleReader: Abort must interrupt a reader parked in the
// unbounded idle wait — this is what lets Shutdown drain connections
// that are not mid-command.
func TestAbortWakesIdleReader(t *testing.T) {
	_, server := tcpPair(t)
	c := NewConn(server)
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadRequest()
		done <- err
	}()
	// Give the reader time to park in its idle wait.
	time.Sleep(50 * time.Millisecond)
	c.Abort()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("aborted read error = %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Abort did not wake the idle reader")
	}
	// Later reads fail fast without touching the socket.
	if _, err := c.ReadRequest(); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort read error = %v, want ErrAborted", err)
	}
}

// TestReadTimeoutMidCommand: the idle wait is unbounded, but once a
// command's first byte arrives the rest must land within ReadTimeout —
// a peer stalling mid-frame cannot pin the connection.
func TestReadTimeoutMidCommand(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)
	c.ReadTimeout = 100 * time.Millisecond

	if _, err := client.Write([]byte("*1\r\n$4\r\nPI")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.ReadRequest()
	if err == nil {
		t.Fatal("stalled mid-command read returned a request")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled read error = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestIdleWaitOutlivesReadTimeout: ReadTimeout must NOT bound the idle
// wait — a quiet client is not an error. The command sent after a pause
// longer than ReadTimeout still gets served.
func TestIdleWaitOutlivesReadTimeout(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)
	c.ReadTimeout = 50 * time.Millisecond

	got := make(chan []string, 1)
	fail := make(chan error, 1)
	go func() {
		req, err := c.ReadRequest()
		if err != nil {
			fail <- err
			return
		}
		got <- argStrings(req)
	}()
	// Stay idle for multiples of ReadTimeout before sending.
	time.Sleep(250 * time.Millisecond)
	sendCommand(t, client, "PING")
	select {
	case args := <-got:
		if len(args) != 1 || args[0] != "PING" {
			t.Fatalf("command = %q", args)
		}
	case err := <-fail:
		t.Fatalf("idle wait hit a deadline: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("read never completed")
	}
}

// TestPipelinedRequestsOneRead: a burst of commands written as one
// segment parses into consecutive requests without further socket
// reads, and Buffered tracks the backlog — the server's flush signal.
func TestPipelinedRequestsOneRead(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)

	var burst bytes.Buffer
	w := bufio.NewWriter(&burst)
	for _, args := range [][]string{{"PING"}, {"g.insert", "1", "2"}, {"g.query", "1", "2"}} {
		if err := Write(w, Command(args...)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if _, err := client.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}

	want := [][]string{{"PING"}, {"g.insert", "1", "2"}, {"g.query", "1", "2"}}
	for i, wargs := range want {
		req, err := c.ReadRequest()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got := argStrings(req)
		if len(got) != len(wargs) {
			t.Fatalf("request %d = %q, want %q", i, got, wargs)
		}
		for j := range wargs {
			if got[j] != wargs[j] {
				t.Fatalf("request %d = %q, want %q", i, got, wargs)
			}
		}
		if i < len(want)-1 && c.Buffered() == 0 {
			t.Fatalf("request %d: backlog not visible in Buffered", i)
		}
		// Only the first request had to read the socket.
		if c.Filled() != (i == 0) {
			t.Fatalf("request %d: Filled = %v", i, c.Filled())
		}
	}
	if c.Buffered() != 0 {
		t.Fatalf("Buffered = %d after burst drained", c.Buffered())
	}
}

// TestReadBufferShrinksAfterLargeCommand is the grow-then-shrink pin: a
// one-off huge command grows the read buffer to hold it, but once the
// input drains the retained capacity drops back — a single 1MB G.MINSERT
// must not pin megabytes for the connection's lifetime.
func TestReadBufferShrinksAfterLargeCommand(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)

	big := string(bytes.Repeat([]byte("x"), 1<<20))
	done := make(chan error, 1)
	go func() {
		req, err := c.ReadRequest()
		if err == nil && (len(req.Args) != 2 || len(req.Args[1]) != 1<<20) {
			err = errors.New("big command parsed wrong")
		}
		done <- err
	}()
	sendCommand(t, client, "set", big)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cap(c.rbuf) < 1<<20 {
		t.Fatalf("read buffer did not grow for the large command (cap=%d)", cap(c.rbuf))
	}

	// The next command recycles the drained buffer and sheds the
	// inflated capacity.
	go func() {
		_, err := c.ReadRequest()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	sendCommand(t, client, "PING")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cap(c.rbuf) > retainedReadBytes {
		t.Fatalf("read buffer retained cap=%d after drain, want <= %d", cap(c.rbuf), retainedReadBytes)
	}
}

// TestRequestSizeIsBounded: parseRequest caps each bulk and the element
// count but not their product, so a client streaming one command that
// never ends — maximal bulks, one after another — must be refused with
// ErrProtocol once maxRequestBytes of it are buffered, with the read
// buffer no larger than that plus its growth slack.
func TestRequestSizeIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("streams maxRequestBytes over loopback")
	}
	client, server := tcpPair(t)
	c := NewConn(server)
	go func() {
		// Write errors end the stream: the server side closes on refusal.
		bulk := make([]byte, 1<<20)
		if _, err := fmt.Fprintf(client, "*%d\r\n", MaxArrayLen); err != nil {
			return
		}
		for {
			if _, err := fmt.Fprintf(client, "$%d\r\n", MaxBulkBytes); err != nil {
				return
			}
			for sent := 0; sent < MaxBulkBytes; sent += len(bulk) {
				if _, err := client.Write(bulk); err != nil {
					return
				}
			}
			if _, err := client.Write([]byte("\r\n")); err != nil {
				return
			}
		}
	}()
	_, err := c.ReadRequest()
	server.Close()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("endless command read error = %v, want ErrProtocol", err)
	}
	if c.Buffered() < maxRequestBytes || cap(c.rbuf) > 2*maxRequestBytes {
		t.Fatalf("refused with %d bytes buffered in a %d-byte buffer, want >= %d buffered and <= %d held",
			c.Buffered(), cap(c.rbuf), maxRequestBytes, 2*maxRequestBytes)
	}
}

// TestProtocolErrorSurfaces: bytes that can never become a valid
// command surface as ErrProtocol so the server can answer before
// dropping the connection.
func TestProtocolErrorSurfaces(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)
	if _, err := client.Write([]byte("!garbage\r\n")); err != nil {
		t.Fatal(err)
	}
	_, err := c.ReadRequest()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("garbage read error = %v, want ErrProtocol", err)
	}
	// The refused bytes are left for Read.
	got := make([]byte, len("!garbage\r\n"))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != "!garbage\r\n" {
		t.Fatalf("Read after the refusal = %q, %v; want the refused bytes", got, err)
	}
}

// TestReadStreamsPayloadAfterRequest: Read hands over the bytes that
// arrived behind a request, then reads the socket — the raw payload a
// request announces, as a replication snapshot follows its push.
func TestReadStreamsPayloadAfterRequest(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)
	if _, err := client.Write([]byte("*2\r\n$4\r\nsnap\r\n$1\r\n8\r\nabc")); err != nil {
		t.Fatal(err)
	}
	req, err := c.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(argStrings(req)); got != "[snap 8]" {
		t.Fatalf("ReadRequest = %s, want [snap 8]", got)
	}
	if _, err := client.Write([]byte("defgh")); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8)
	if _, err := io.ReadFull(c, payload); err != nil || string(payload) != "abcdefgh" {
		t.Fatalf("payload = %q, %v; want \"abcdefgh\"", payload, err)
	}
	if c.Buffered() != 0 {
		t.Fatalf("%d bytes still buffered after the payload", c.Buffered())
	}
}

// TestFlushRoundTrip: replies streamed through the Writer reach the
// peer intact under WriteTimeout, a large bulk payload between small
// replies included.
func TestFlushRoundTrip(t *testing.T) {
	client, server := tcpPair(t)
	c := NewConn(server)
	c.WriteTimeout = time.Second

	payload := bytes.Repeat([]byte("p"), 8<<10)
	c.W.AppendSimple("PONG")
	c.W.AppendBulk(payload)
	c.W.AppendInt(7)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	client.SetReadDeadline(time.Now().Add(time.Second))
	r := bufio.NewReader(client)
	if v, err := Read(r); err != nil || v.Str != "PONG" {
		t.Fatalf("reply 1 = %+v, %v", v, err)
	}
	if v, err := Read(r); err != nil || v.Str != string(payload) {
		t.Fatalf("reply 2: err=%v, len=%d", err, len(v.Str))
	}
	if v, err := Read(r); err != nil || v.Int != 7 {
		t.Fatalf("reply 3 = %+v, %v", v, err)
	}
}

// TestWriteTimeoutOnStalledPeer: a peer that stops reading makes the
// flush error out instead of wedging the serve goroutine forever.
func TestWriteTimeoutOnStalledPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("fills kernel socket buffers")
	}
	client, server := tcpPair(t)
	// Shrink the server's send buffer so the stall surfaces quickly.
	if tc, ok := server.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	if tc, ok := client.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	c := NewConn(server)
	c.WriteTimeout = 200 * time.Millisecond

	// The client never reads; keep writing until the buffers fill and
	// the deadline fires.
	payload := make([]byte, 32<<10)
	deadline := time.Now().Add(10 * time.Second)
	var stallErr error
	for stallErr == nil {
		if time.Now().After(deadline) {
			t.Skip("kernel buffered >10s of writes; environment too generous for this test")
		}
		c.W.AppendBulk(payload)
		stallErr = c.Flush()
	}
	var nerr net.Error
	if !errors.As(stallErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled-peer write error = %v, want timeout", stallErr)
	}
}

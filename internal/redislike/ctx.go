package redislike

import (
	"math"
	"strconv"
	"time"
	"unsafe"

	"cuckoograph/internal/core"
	"cuckoograph/internal/resp"
)

// Ctx carries one command invocation to its handler: the resolved name,
// the arguments (name excluded, arity already validated against the
// command's table row) and the connection's reply writer. A handler
// reads ctx.Args and appends its reply to ctx.w with the resp.Writer
// Append methods (ReplyStaged for a staged write); it reaches its
// server through the module (gm.srv). One Ctx lives per connection and
// is reused across every command it serves — the scratch fields below
// are what make the hot data-plane commands allocation-free.
type Ctx struct {
	// Name is the resolved (lowercased) command name.
	Name string
	// Args are the command's arguments as byte-slice views into the
	// connection's read buffer — valid only for the handler's duration.
	// Handlers that retain an argument must copy it.
	Args [][]byte

	w *resp.Writer

	// rc is the originating resp connection; hijacked marks that the
	// handler took it over (see Hijack) and the serve loop must not
	// touch it again.
	rc       *resp.Conn
	hijacked bool

	// stamp is when the previous command on this connection ended, the
	// start of the next while its input was already buffered; zero
	// means read the clock (see serveRequest).
	stamp time.Time

	// staged is set by ReplyStaged for the command being served;
	// uncommitted lists the staged replies buffered since the last
	// commit (see Server.commit), reused across drains.
	staged      bool
	uncommitted []stagedReply

	// Per-connection scratch, reused across commands up to
	// retainedScratchBytes each (see trimScratch):
	nameBuf []byte     // lowercased command name
	batch   core.Batch // decoded write-command pairs
	ids     []uint64   // collected node ids (G.GETNEIGHBORS, G.NODES)
}

// retainedScratchBytes caps the capacity each per-connection scratch
// keeps between commands (grow-then-shrink, as resp.Writer.Reset): one
// G.NODES on a large graph must not pin its id list for the life of the
// connection.
const retainedScratchBytes = 64 << 10

// trimScratch drops every scratch buffer that grew past
// retainedScratchBytes; serveRequest runs it after each command.
func (c *Ctx) trimScratch() {
	c.nameBuf = retained(c.nameBuf)
	c.batch = retained(c.batch)
	c.ids = retained(c.ids)
}

// retained returns s, or nil if its capacity is past
// retainedScratchBytes.
func retained[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > retainedScratchBytes {
		return nil
	}
	return s
}

// stagedReply locates one buffered write reply whose mutation is
// applied and staged in the log but not yet committed.
type stagedReply struct {
	cmd      *Command
	from, to resp.Mark
}

// Hijack hands the raw connection to the handler for the rest of its
// life — the replication stream's entry point. After Hijack the serve
// loop neither reads nor writes the connection again: the handler owns
// both directions and the connection closes when the handler returns.
func (c *Ctx) Hijack() *resp.Conn {
	c.hijacked = true
	return c.rc
}

// ReplyStaged writes the ":" integer reply of a mutation that has been
// applied and staged with the module's log but not committed. The
// serve loop commits before the reply leaves the server, and rewrites
// it to -WALERR if that commit fails: the handler need not wait for the
// disk, and the client still never sees an answer the log cannot back.
func (c *Ctx) ReplyStaged(n int64) {
	c.staged = true
	c.w.AppendInt(n)
}

// argUint decodes argument i as a decimal uint64, answering a bad one
// with `<cmd>: bad <what> "<arg>"`.
func argUint(ctx *Ctx, i int, what string) (uint64, error) {
	n, ok := parseUint64(ctx.Args[i])
	if !ok {
		return 0, badArg(ctx.Name, "bad "+what+" "+strconv.Quote(string(ctx.Args[i])))
	}
	return n, nil
}

// parseUint64 decodes a decimal uint64 from bytes without the string
// copy strconv.ParseUint would force on the hot path. It accepts
// exactly what ParseUint(s, 10, 64) does: one or more digits, no sign.
func parseUint64(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// appendLower lowercases ASCII src into dst — command-name folding
// without a strings.ToLower allocation.
func appendLower(dst, src []byte) []byte {
	for _, c := range src {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

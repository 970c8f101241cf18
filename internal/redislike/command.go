package redislike

import (
	"slices"
	"strings"
)

// Flags classify a command for dispatch-time policy and introspection.
type Flags uint32

const (
	// FlagWrite marks a command that mutates the dataset. Write commands
	// are rejected with -READONLY on a replica and -MISCONF in degraded
	// mode.
	FlagWrite Flags = 1 << iota
	// FlagRead marks a command that reads the dataset.
	FlagRead
	// FlagAdmin marks a control-plane command (durability, snapshots,
	// introspection of server state).
	FlagAdmin
)

// Names renders the set bits for introspection replies.
func (f Flags) Names() []string {
	var out []string
	if f&FlagWrite != 0 {
		out = append(out, "write")
	}
	if f&FlagRead != 0 {
		out = append(out, "readonly")
	}
	if f&FlagAdmin != 0 {
		out = append(out, "admin")
	}
	return out
}

// Arity bounds a command's argument count, the command name excluded.
// Max < 0 means variadic (no upper bound).
type Arity struct {
	Min, Max int
}

// Exactly accepts exactly n arguments.
func Exactly(n int) Arity { return Arity{Min: n, Max: n} }

// AtLeast accepts n or more arguments.
func AtLeast(n int) Arity { return Arity{Min: n, Max: -1} }

// Between accepts between min and max arguments inclusive.
func Between(min, max int) Arity { return Arity{Min: min, Max: max} }

// Check reports whether n arguments satisfy the spec.
func (a Arity) Check(n int) bool {
	return n >= a.Min && (a.Max < 0 || n <= a.Max)
}

// Redis renders the spec in Redis COMMAND convention: the total token
// count including the command name, negated when more are accepted.
func (a Arity) Redis() int64 {
	if a.Max == a.Min {
		return int64(a.Min + 1)
	}
	return -int64(a.Min + 1)
}

// HandlerFunc serves one command: it reads ctx.Args and appends its
// reply to the connection's writer, ctx.w. It must either write exactly
// one reply — an array header plus its elements counts as one; a staged
// write answers through ReplyStaged — or return an error. A non-nil
// error discards anything the handler already wrote and sends one
// error reply of its class instead, and a handler that writes nothing
// answers an error too, so the wire always sees a single well-formed
// reply in pipeline order.
type HandlerFunc func(*Ctx) error

// Command is one row of the server's command table: everything the
// server needs to admit, dispatch, meter and introspect one command.
// The row is the single source of truth — arity is enforced before the
// handler runs, flags drive dispatch policy (write-vs-read-only) and the
// COMMAND/G.INFO introspection output is generated from it.
type Command struct {
	Name    string // lowercase; the table's key
	Arity   Arity
	Flags   Flags
	Summary string // one-line description for introspection
	Handler HandlerFunc

	// metrics is the command's meter, created when the command joins
	// the table: dispatch and every introspection surface reach it
	// through the Command.
	metrics *cmdMetrics
}

// install adds cmds to the server's table, each with a fresh meter,
// and keeps the name-sorted list that introspection walks in order.
// The table is filled before the server serves (NewServerWith,
// LoadModule) and only read after, so lookups take no lock.
func (s *Server) install(cmds []*Command) {
	for _, c := range cmds {
		c.metrics = new(cmdMetrics)
		s.cmds[c.Name] = c
	}
	s.sorted = append(s.sorted, cmds...)
	slices.SortFunc(s.sorted, func(a, b *Command) int { return strings.Compare(a.Name, b.Name) })
}

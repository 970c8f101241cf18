package redislike

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Flags classify a command for dispatch-time policy and introspection.
type Flags uint32

const (
	// FlagWrite marks a command that mutates the dataset. Write commands
	// are rejected with -LOADING while a recovery is in progress.
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

// HandlerFunc serves one command, streaming its reply through the Ctx
// (see the Reply methods). Returning a non-nil error discards anything
// the handler already wrote and sends one typed error reply instead —
// so a failure is always a single well-formed reply in pipeline order.
type HandlerFunc func(*Ctx) error

// Command is the unit of registration: everything the server needs to
// admit, dispatch, meter and introspect one command. The registry entry
// is the single source of truth — arity is enforced before the handler
// runs, flags drive dispatch policy (write-vs-loading) and the
// COMMAND/G.INFO introspection output is generated from it.
type Command struct {
	Name    string
	Arity   Arity
	Flags   Flags
	Summary string // one-line description for introspection
	Handler HandlerFunc

	// metrics is the command's meter, created at registration: dispatch
	// and every introspection surface reach it through the Command.
	metrics *cmdMetrics
}

// Registry maps command names to registrations. Lookups are
// case-insensitive; names are stored lowercased.
type Registry struct {
	mu   sync.RWMutex
	cmds map[string]*Command
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cmds: make(map[string]*Command)}
}

// Register adds one command, rejecting duplicates and nil handlers.
func (r *Registry) Register(c *Command) error {
	if c == nil {
		return fmt.Errorf("redislike: nil command")
	}
	if c.Handler == nil {
		return fmt.Errorf("redislike: command %q has no handler", c.Name)
	}
	name := strings.ToLower(c.Name)
	if name == "" {
		return fmt.Errorf("redislike: command with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cmds[name]; dup {
		return fmt.Errorf("redislike: duplicate command %q", c.Name)
	}
	cc := *c
	cc.Name = name
	cc.metrics = new(cmdMetrics)
	r.cmds[name] = &cc
	return nil
}

// Lookup resolves a (lowercased) name.
func (r *Registry) Lookup(name string) (*Command, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.cmds[name]
	return c, ok
}

// LookupBytes resolves a lowercased name held as bytes without copying
// it to a string — the hot-path lookup. The string conversion in the
// map index compiles to a no-alloc lookup.
func (r *Registry) LookupBytes(name []byte) (*Command, bool) {
	r.mu.RLock()
	c, ok := r.cmds[string(name)]
	r.mu.RUnlock()
	return c, ok
}

// Len reports how many commands are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cmds)
}

// Commands returns every registration sorted by name — the stable order
// introspection replies use.
func (r *Registry) Commands() []*Command {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Command, 0, len(r.cmds))
	for _, c := range r.cmds {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

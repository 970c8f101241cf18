package redislike

import (
	"strings"

	"cuckoograph/internal/resp"
)

// registerBuiltins registers PING and the COMMAND introspection
// command. Builtins go through the same registry as module commands —
// there is no hardwired dispatch path.
func (s *Server) registerBuiltins() {
	for _, c := range []*Command{
		{
			Name: "ping", Arity: Between(0, 1), Summary: "liveness probe; echoes its argument",
			Handler: func(ctx *Ctx) error {
				if len(ctx.Args) == 1 {
					ctx.ReplyBulk(ctx.Args[0])
				} else {
					ctx.ReplySimple("PONG")
				}
				return nil
			},
		},
		{
			Name: "command", Arity: AtLeast(0), Summary: "introspect the command registry",
			Handler: s.commandCmd,
		},
	} {
		// Registration of the built-ins cannot fail: names are unique
		// literals and every handler is set.
		if err := s.reg.Register(c); err != nil {
			panic(err)
		}
	}
}

// commandEntry renders one registration in COMMAND reply shape:
// [name, arity (Redis convention), [flags...], summary]. Everything
// comes from the registry — the registration is the single source of
// truth for dispatch and introspection alike.
func commandEntry(c *Command) resp.Value {
	flags := make([]resp.Value, 0, 3)
	for _, f := range c.Flags.Names() {
		flags = append(flags, resp.Simple(f))
	}
	return resp.Array(
		resp.Bulk(c.Name),
		resp.Integer(c.Arity.Redis()),
		resp.Array(flags...),
		resp.Bulk(c.Summary),
	)
}

// commandCmd is COMMAND [COUNT | LIST | INFO name [name ...]]: the
// registry-generated introspection surface. A cold path: replies are
// assembled as boxed Values and bridged through the streaming writer.
func (s *Server) commandCmd(ctx *Ctx) error {
	if len(ctx.Args) == 0 {
		cmds := s.reg.Commands()
		out := make([]resp.Value, len(cmds))
		for i, c := range cmds {
			out[i] = commandEntry(c)
		}
		ctx.ReplyValue(resp.Array(out...))
		return nil
	}
	switch sub := strings.ToLower(ctx.ArgString(0)); sub {
	case "count":
		if len(ctx.Args) != 1 {
			return &BadArgError{Cmd: ctx.Name, Detail: "COUNT takes no arguments"}
		}
		ctx.ReplyInt(int64(s.reg.Len()))
		return nil
	case "list":
		if len(ctx.Args) != 1 {
			return &BadArgError{Cmd: ctx.Name, Detail: "LIST takes no arguments"}
		}
		cmds := s.reg.Commands()
		ctx.ReplyArrayHeader(len(cmds))
		for _, c := range cmds {
			ctx.ReplyBulkString(c.Name)
		}
		return nil
	case "info":
		out := make([]resp.Value, 0, len(ctx.Args)-1)
		for _, name := range ctx.Args[1:] {
			if c, ok := s.reg.Lookup(strings.ToLower(string(name))); ok {
				out = append(out, commandEntry(c))
			} else {
				out = append(out, resp.NullBulk())
			}
		}
		ctx.ReplyValue(resp.Array(out...))
		return nil
	default:
		return &BadArgError{Cmd: ctx.Name, Detail: "unknown subcommand " + sub + " (want COUNT, LIST or INFO)"}
	}
}

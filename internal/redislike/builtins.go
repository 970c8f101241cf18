package redislike

import "strings"

// builtins are PING and the COMMAND introspection command. They join
// the same table as the module's commands — there is no hardwired
// dispatch path.
func (s *Server) builtins() []*Command {
	return []*Command{
		{
			Name: "ping", Arity: Between(0, 1), Summary: "liveness probe; echoes its argument",
			Handler: func(ctx *Ctx) error {
				if len(ctx.Args) == 1 {
					ctx.w.AppendBulk(ctx.Args[0])
				} else {
					ctx.w.AppendSimple("PONG")
				}
				return nil
			},
		},
		{
			Name: "command", Arity: AtLeast(0), Summary: "introspect the command registry",
			Handler: s.commandCmd,
		},
	}
}

// replyCommandEntry writes one command in COMMAND reply shape:
// [name, arity (Redis convention), [flags...], summary]. Everything
// comes from the table row — the single source of truth for dispatch
// and introspection alike.
func replyCommandEntry(ctx *Ctx, c *Command) {
	flags := c.Flags.Names()
	ctx.w.AppendArrayHeader(4)
	ctx.w.AppendBulkString(c.Name)
	ctx.w.AppendInt(c.Arity.Redis())
	ctx.w.AppendArrayHeader(len(flags))
	for _, f := range flags {
		ctx.w.AppendSimple(f)
	}
	ctx.w.AppendBulkString(c.Summary)
}

// commandCmd is COMMAND [COUNT | LIST | INFO name [name ...]]: the
// introspection surface generated from the command table.
func (s *Server) commandCmd(ctx *Ctx) error {
	if len(ctx.Args) == 0 {
		ctx.w.AppendArrayHeader(len(s.sorted))
		for _, c := range s.sorted {
			replyCommandEntry(ctx, c)
		}
		return nil
	}
	switch sub := strings.ToLower(string(ctx.Args[0])); sub {
	case "count":
		if len(ctx.Args) != 1 {
			return badArg(ctx.Name, "COUNT takes no arguments")
		}
		ctx.w.AppendInt(int64(len(s.sorted)))
		return nil
	case "list":
		if len(ctx.Args) != 1 {
			return badArg(ctx.Name, "LIST takes no arguments")
		}
		ctx.w.AppendArrayHeader(len(s.sorted))
		for _, c := range s.sorted {
			ctx.w.AppendBulkString(c.Name)
		}
		return nil
	case "info":
		ctx.w.AppendArrayHeader(len(ctx.Args) - 1)
		for _, name := range ctx.Args[1:] {
			if c, ok := s.cmds[strings.ToLower(string(name))]; ok {
				replyCommandEntry(ctx, c)
			} else {
				ctx.w.AppendNullBulk()
			}
		}
		return nil
	default:
		return badArg(ctx.Name, "unknown subcommand "+sub+" (want COUNT, LIST or INFO)")
	}
}

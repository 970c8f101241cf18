package redislike

import "errors"

// The error taxonomy. A handler, the dispatch layer and admission
// control report a failure as an *Error whose RESP error class (the
// leading word of the error reply, which Redis clients switch on) is
// chosen where the error is made; errorReply renders every error reply
// from it. The taxonomy is what keeps a pipelined connection in sync:
// every failure mode — bad arity, unknown command, malformed argument,
// durability failure, read-only or degraded serving, admission control
// — produces a well-formed error reply in command order, never a closed
// socket mid-pipeline.

// RESP error classes. Clients see them as the first word of an error
// reply ("-READONLY ...", "-MAXCLIENTS ...").
const (
	ClassErr        = "ERR"        // generic command failure (bad arguments, state)
	ClassWALErr     = "WALERR"     // acknowledged-write durability failure
	ClassMaxClients = "MAXCLIENTS" // connection admission rejected
	ClassShutdown   = "SHUTDOWN"   // server is draining
	ClassReadOnly   = "READONLY"   // write rejected on a replica
	ClassMisconf    = "MISCONF"    // write rejected in degraded (WAL-failed) mode
)

// Error is a command-layer failure: Class is its RESP error class, Msg
// the text after the class word, and Err the cause it wraps, if any.
type Error struct {
	Class string
	Msg   string
	Err   error
}

func (e *Error) Error() string { return e.Msg }
func (e *Error) Unwrap() error { return e.Err }

// errorReply renders err as the text of its error reply: the class, a
// space, the message. An error that carries no class is answered as
// ERR.
func errorReply(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Class + " " + err.Error()
	}
	return ClassErr + " " + err.Error()
}

// badArg reports an argument that parsed at the protocol level but is
// malformed for the command — a non-numeric node id, an odd-length
// batch, an unknown section.
func badArg(cmd, detail string) error {
	return &Error{Class: ClassErr, Msg: cmd + ": " + detail}
}

// walError reports that a mutation was applied in memory but its log
// append failed: the write is NOT durable and the client must not
// assume it survives a crash. Its own class lets clients tell
// "rejected" from "applied but at risk". A refusal of a log command,
// an error that carries its own class, keeps it.
func walError(cmd string, err error) error {
	class, e := ClassWALErr, (*Error)(nil)
	if errors.As(err, &e) {
		class = e.Class
	}
	return &Error{Class: class, Msg: cmd + ": " + err.Error(), Err: err}
}

// degradedError rejects a write while the server is in degraded
// read-only mode: the WAL failed under an earlier write (disk full, I/O
// error), so new mutations can no longer be made durable. Unlike
// -READONLY this is an operational condition, not a role — reads keep
// serving, and the operator exits it with wal_resume once the storage
// problem is fixed. The MISCONF class matches the Redis convention for
// "persistence is broken, writes refused". cmd is empty when no command
// is being refused (Server.Ready).
func degradedError(cmd, reason string) error {
	msg := "write commands are rejected: degraded mode after a wal failure"
	if cmd != "" {
		msg = "cannot execute '" + cmd + "': " + msg
	}
	if reason != "" {
		msg += " (" + reason + ")"
	}
	return &Error{Class: ClassMisconf, Msg: msg + "; fix the storage and run wal_resume"}
}

// errShutdown rejects new connections and new commands once the server
// has begun draining.
var errShutdown = &Error{Class: ClassShutdown, Msg: "server is shutting down"}

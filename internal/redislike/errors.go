package redislike

import (
	"errors"
	"fmt"
)

// The error taxonomy. Handlers return typed errors instead of
// hand-formatting "-ERR ..." strings; the dispatch layer maps each type
// onto a RESP error class (the leading word of the error reply, which
// Redis clients switch on) exactly once. The taxonomy is what keeps a
// pipelined connection in sync: every failure mode — bad arity, unknown
// command, malformed argument, durability failure, read-only or
// degraded serving, admission control — produces a well-formed error reply in
// command order, never a closed socket mid-pipeline.

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

// ArityError reports a call violating the command's registered arity.
type ArityError struct {
	Cmd string
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("wrong number of arguments for '%s' command", e.Cmd)
}

// UnknownCommandError reports a name with no command table row.
type UnknownCommandError struct {
	Cmd string
}

func (e *UnknownCommandError) Error() string {
	return fmt.Sprintf("unknown command '%s'", e.Cmd)
}

// BadArgError reports an argument that parsed at the protocol level but
// is malformed for the command — a non-numeric node id, an odd-length
// batch, an unparseable epoch.
type BadArgError struct {
	Cmd    string
	Detail string
}

func (e *BadArgError) Error() string { return e.Cmd + ": " + e.Detail }

// WALError reports that a mutation was applied in memory but its log
// append failed: the write is NOT durable and the client must not
// assume it survives a crash. It maps to its own RESP class so clients
// can distinguish "rejected" from "applied but at risk".
type WALError struct {
	Cmd string
	Err error
}

func (e *WALError) Error() string { return e.Cmd + ": wal: " + e.Err.Error() }
func (e *WALError) Unwrap() error { return e.Err }

// MaxClientsError rejects a connection over the configured limit. It is
// written to the excess connection before it is closed — admission
// control answers, it does not hang.
type MaxClientsError struct {
	Limit int
}

func (e *MaxClientsError) Error() string {
	return fmt.Sprintf("connection limit of %d reached", e.Limit)
}

// ShutdownError rejects new connections and new commands once the
// server has begun draining.
type ShutdownError struct{}

func (e *ShutdownError) Error() string { return "server is shutting down" }

// ReadOnlyError rejects a write-flagged command on a replica. Replicas
// apply leader mutations through the replication stream, never through
// client dispatch, so every client write is rejected — matching the
// Redis "-READONLY You can't write against a read only replica" shape
// clients already know how to handle.
type ReadOnlyError struct {
	Cmd string
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("cannot execute '%s' against a read-only replica; send writes to the leader", e.Cmd)
}

// DegradedError rejects a write-flagged command while the server is in
// degraded read-only mode: the WAL failed under an earlier write (disk
// full, I/O error), so new mutations can no longer be made durable.
// Unlike -READONLY this is an operational condition, not a role — reads
// keep serving, and the operator exits it with wal_resume once the
// storage problem is fixed. The MISCONF class matches the Redis
// convention for "persistence is broken, writes refused".
type DegradedError struct {
	Cmd    string
	Reason string
}

func (e *DegradedError) Error() string {
	msg := "write commands are rejected: degraded mode after a wal failure"
	if e.Cmd != "" {
		msg = fmt.Sprintf("cannot execute '%s': %s", e.Cmd, msg)
	}
	if e.Reason != "" {
		msg += " (" + e.Reason + ")"
	}
	return msg + "; fix the storage and run wal_resume"
}

// errorClass maps a handler error onto its RESP class.
func errorClass(err error) string {
	var (
		walErr   *WALError
		maxc     *MaxClientsError
		down     *ShutdownError
		readonly *ReadOnlyError
		degraded *DegradedError
	)
	switch {
	case errors.As(err, &walErr):
		return ClassWALErr
	case errors.As(err, &maxc):
		return ClassMaxClients
	case errors.As(err, &down):
		return ClassShutdown
	case errors.As(err, &readonly):
		return ClassReadOnly
	case errors.As(err, &degraded):
		return ClassMisconf
	}
	return ClassErr
}

// Command cgserver starts the Redis-like RESP server with the
// CuckooGraph module loaded (the paper's §V-F deployment). It speaks
// RESP2 on the given address; use cgcli or any Redis client:
//
//	cgserver -addr 127.0.0.1:6380
//	cgcli -addr 127.0.0.1:6380 g.insert 1 2
//	cgcli -addr 127.0.0.1:6380 g.getneighbors 1
//
// With -wal-dir the graph is durable: on startup the newest checkpoint
// snapshot is loaded and the write-ahead-log tail replayed, and every
// acknowledged mutation is group-committed to the log. -checkpoint-every
// takes periodic snapshots that truncate the replayed log prefix:
//
//	cgserver -addr 127.0.0.1:6380 -wal-dir /var/lib/cgserver \
//	         -wal-sync always -checkpoint-every 5m
//
// If the log fails under a write (disk full, I/O error), the failing
// write is errored and -wal-on-error selects what happens next: the
// default readonly keeps the process serving reads while writes answer
// -MISCONF until the operator frees space and runs wal_resume; panic
// crashes so a supervisor can restart against healthy storage. See
// README.md § Failure modes & degraded operation for the runbook.
//
// For production serving, -metrics-addr exposes GET /metrics
// (Prometheus text format: per-command counters and latency histograms
// plus engine, snapshot and WAL state), GET /healthz (liveness) and
// GET /readyz (readiness: 503 while loading, degraded, or a replica is
// still bootstrapping), and -pprof additionally mounts /debug/pprof/
// on the same listener; -max-conns, -read-timeout and -write-timeout
// bound misbehaving clients; and SIGTERM/SIGINT trigger a graceful
// shutdown that drains in-flight commands (bounded by
// -shutdown-timeout), releases retained snapshot views and closes the
// WAL cleanly:
//
//	cgserver -addr 127.0.0.1:6380 -metrics-addr 127.0.0.1:9180 \
//	         -max-conns 1024 -read-timeout 30s -write-timeout 30s \
//	         -log-level info -log-format json
//
// g.snapshot freezes a consistent epoch-stamped view without blocking
// writers; graph.bfs and graph.pagerank run on frozen views and accept
// an epoch tag for time-travel reads. -snapshot-ring bounds how many
// epochs the server retains:
//
//	cgcli g.snapshot            → 7
//	cgcli graph.bfs 1 7         # BFS over the graph as of epoch 7
//	cgcli g.release 7
//
// With -replica-of the server is a read replica: it bootstraps from the
// leader's checkpoint snapshot, follows its write-ahead log over the
// g.replicate stream, serves reads, and answers writes with -READONLY.
// The replica keeps no log of its own, so -wal-dir does not combine
// with -replica-of; on a lost link it reconnects and resumes from its
// last applied position. See internal/redislike/repl.go for the wire
// protocol and README.md § Replication for the consistency contract:
//
//	cgserver -addr 127.0.0.1:6381 -replica-of 127.0.0.1:6380
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cuckoograph/internal/redislike"
	"cuckoograph/internal/wal"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:6380", "listen address")
	walDir := flag.String("wal-dir", "", "durability directory (write-ahead log + checkpoints); empty disables")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always (group commit) or nosync (page cache)")
	walOnError := flag.String("wal-on-error", "readonly", "what a WAL storage failure does: readonly (degrade to -MISCONF writes until wal_resume) or panic (crash for a supervisor restart)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval, e.g. 5m (0 disables; requires -wal-dir)")
	replicaOf := flag.String("replica-of", "", "leader host:port to replicate from; the server becomes a read-only follower (conflicts with -wal-dir)")
	snapshotRing := flag.Int("snapshot-ring", redislike.DefaultSnapshotRing,
		"how many g.snapshot epochs are retained for time-travel reads; the oldest is released past the bound")
	metricsListen := flag.String("metrics-addr", "", "observability HTTP listen address serving /metrics and /healthz; empty disables")
	pprofOn := flag.Bool("pprof", false, "also mount /debug/pprof/ profiling endpoints on the metrics listener (requires -metrics-addr)")
	maxConns := flag.Int("max-conns", 0, "max concurrently served connections; further dials are answered with -MAXCLIENTS (0 = unlimited)")
	readTimeout := flag.Duration("read-timeout", 0, "per-command read deadline once a command has started arriving (0 disables; idle connections are never timed out)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-reply write deadline; a client that stops reading is disconnected (0 disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "how long graceful shutdown waits for in-flight commands before force-closing connections")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgserver:", err)
		return 2
	}

	srv := redislike.NewServerWith(redislike.Config{
		MaxConns:     *maxConns,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		Logger:       logger,
	})
	gm, mod := redislike.NewGraphModule()
	if err := srv.LoadModule(mod); err != nil {
		logger.Error("module load failed", "err", err)
		return 1
	}
	gm.SetSnapshotRing(*snapshotRing)

	if *replicaOf != "" {
		// A replica's durability is the leader's log; local logging or
		// checkpointing would fork the history the stream replays onto.
		if *walDir != "" {
			logger.Error("-replica-of conflicts with -wal-dir (replicas follow the leader's log; they keep none of their own)")
			return 2
		}
		if *checkpointEvery > 0 {
			logger.Error("-replica-of conflicts with -checkpoint-every (checkpoints belong to the leader)")
			return 2
		}
		repl := redislike.StartReplica(gm, *replicaOf)
		logger.Info("replica mode", "leader", repl.Leader())
	}

	if *walDir != "" {
		sync, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			logger.Error("bad -wal-sync", "err", err)
			return 2
		}
		policy, err := redislike.ParseWALErrorPolicy(*walOnError)
		if err != nil {
			logger.Error("bad -wal-on-error", "err", err)
			return 2
		}
		gm.SetWALErrorPolicy(policy)
		stats, err := gm.RecoverWAL(*walDir)
		if err != nil {
			logger.Error("wal recovery failed", "dir", *walDir, "err", err)
			return 1
		}
		logger.Info("recovered", "dir", *walDir,
			"edges", gm.Graph().NumEdges(), "snapshot", stats.Snapshot,
			"records", stats.Replay.Records, "segments", stats.Replay.Segments,
			"torn_bytes", stats.Replay.TornBytes,
			"elapsed", stats.Elapsed.Round(time.Millisecond).String())
		if err := gm.EnableWAL(*walDir, wal.Options{Sync: sync}); err != nil {
			logger.Error("wal enable failed", "dir", *walDir, "err", err)
			return 1
		}
	} else if *checkpointEvery > 0 {
		logger.Error("-checkpoint-every requires -wal-dir")
		return 2
	}

	// Shutdown begins on the first SIGINT/SIGTERM; a second signal
	// force-exits through the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *walDir != "" && *checkpointEvery > 0 {
		go func() {
			t := time.NewTicker(*checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, err := gm.Checkpoint(); err != nil {
						logger.Error("periodic checkpoint failed", "err", err)
					}
				}
			}
		}()
	}

	if *pprofOn && *metricsListen == "" {
		logger.Error("-pprof requires -metrics-addr (profiles are served on the metrics listener)")
		return 1
	}
	if *metricsListen != "" {
		if *pprofOn {
			srv.EnablePprof()
		}
		bound, err := srv.ListenMetrics(*metricsListen)
		if err != nil {
			logger.Error("metrics listener failed", "addr", *metricsListen, "err", err)
			return 1
		}
		logger.Info("metrics listening", "addr", bound, "pprof", *pprofOn)
	}

	if _, err := srv.Listen(*addr); err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}

	<-ctx.Done()
	stop()
	logger.Info("signal received; shutting down", "timeout", shutdownTimeout.String())
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("shutdown failed", "err", err)
		return 1
	}
	return 0
}

// buildLogger maps the -log-level/-log-format flags onto a slog logger
// writing to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level: unknown level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("-log-format: unknown format %q (want text|json)", format)
}

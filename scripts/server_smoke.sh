#!/usr/bin/env bash
# End-to-end smoke test of the production serving path: build cgserver
# and cgcli, check that usage errors exit 2 before any work, boot the
# server with WAL durability and the metrics listener, drive it over RESP, scrape /metrics, then SIGTERM it and
# assert a clean drain — and that a restart recovers every acknowledged
# write from the WAL.
#
# Usage: scripts/server_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
waldir="$work/wal"
log="$work/cgserver.log"
addr="127.0.0.1:16380"
maddr="127.0.0.1:19180"

fail() { echo "server_smoke: FAIL: $*" >&2; [ -f "$log" ] && sed 's/^/  server: /' "$log" >&2; exit 1; }

echo "== build"
go build -o "$work/cgserver" ./cmd/cgserver
go build -o "$work/cgcli" ./cmd/cgcli

cli() { "$work/cgcli" -addr "$addr" "$@"; }

start_server() {
  "$work/cgserver" -addr "$addr" -wal-dir "$waldir" -wal-sync always \
    -metrics-addr "$maddr" -pprof -max-conns 64 \
    -read-timeout 10s -write-timeout 10s -shutdown-timeout 10s \
    -log-level debug >>"$log" 2>&1 &
  srv_pid=$!
  for _ in $(seq 1 100); do
    if out=$(cli ping 2>/dev/null) && [ "$out" = "PONG" ]; then return 0; fi
    kill -0 "$srv_pid" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
  done
  fail "server never answered PING"
}

echo "== usage errors exit 2 before any work"
usage_exit() { # want-in-log, cgserver flags...
  local want=$1 rc=0
  shift
  timeout 10 "$work/cgserver" -addr "$addr" "$@" >"$work/usage.log" 2>&1 || rc=$?
  [ "$rc" = 2 ] || { sed 's/^/  usage: /' "$work/usage.log" >&2; fail "cgserver $* exited $rc, want 2"; }
  grep -q -- "$want" "$work/usage.log" || fail "cgserver $* did not say $want"
  if grep -q "recovered" "$work/usage.log"; then fail "cgserver $* recovered before rejecting its flags"; fi
}
usage_exit "-pprof requires -metrics-addr" -wal-dir "$waldir" -pprof
usage_exit "bad -wal-sync" -wal-sync sometimes
usage_exit "bad -wal-sync" -wal-dir "$waldir" -wal-sync async

echo "== boot with wal + metrics"
start_server

echo "== drive commands"
[ "$(cli g.insert 1 2)" = "(integer) 1" ] || fail "g.insert 1 2"
[ "$(cli g.insert 1 3)" = "(integer) 1" ] || fail "g.insert 1 3"
[ "$(cli g.insert 2 4)" = "(integer) 1" ] || fail "g.insert 2 4"
[ "$(cli g.query 1 2)" = "(integer) 1" ] || fail "g.query 1 2"
[ "$(cli g.degree 1)" = "(integer) 2" ] || fail "g.degree 1"
cli graph.bfs 1 | grep -q "4" || fail "graph.bfs 1 did not reach node 4"
cli g.info graph | grep -q "edges:3" || fail "g.info graph edges:3"
# ping, command and the graph module's eighteen commands; nothing else.
[ "$(cli command count)" = "(integer) 20" ] || fail "command count != 20"
cli set k v 2>&1 | grep -q "ERR unknown command" || fail "set answered as a command"
# Durability is fixed at boot: no runtime enable or replay.
cli wal_enable "$work/other" 2>&1 | grep -q "ERR unknown command" || fail "wal_enable answered as a command"
cli wal_replay "$waldir" 2>&1 | grep -q "ERR unknown command" || fail "wal_replay answered as a command"
# Error taxonomy over the wire: arity and unknown-command classes.
cli g.insert 1 2>&1 | grep -q "ERR wrong number of arguments" || fail "arity error class"
cli nosuchcmd 2>&1 | grep -q "ERR unknown command" || fail "unknown command class"
# wal_resume only leaves degraded mode: a healthy server refuses it.
cli wal_resume 2>&1 | grep -q "^(error) ERR " || fail "wal_resume on a healthy server was not refused"

echo "== scrape /metrics"
metrics=$(curl -fsS "http://$maddr/metrics") || fail "metrics scrape"
echo "$metrics" | grep -q 'cg_commands_total{cmd="g.insert"}' || fail "missing command counter"
echo "$metrics" | grep -q 'cg_command_seconds_bucket' || fail "missing latency histogram"
echo "$metrics" | grep -q 'cg_graph_edges 3' || fail "missing engine gauge (cg_graph_edges 3)"
echo "$metrics" | grep -q 'cg_wal_enabled 1' || fail "missing wal gauge"
echo "$metrics" | grep -q 'cg_wal_ops_total 3' || fail "wal ops counter != 3"
curl -fsS "http://$maddr/healthz" | grep -q ok || fail "healthz"

echo "== pprof on the metrics listener"
curl -fsS "http://$maddr/debug/pprof/cmdline" | tr '\0' ' ' | grep -q "cgserver" || fail "pprof cmdline"

echo "== graceful shutdown on SIGTERM"
kill -TERM "$srv_pid"
for _ in $(seq 1 100); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.1
done
if wait "$srv_pid"; then :; else fail "server exited non-zero on SIGTERM"; fi
grep -q "shutdown complete" "$log" || fail "no shutdown-complete log line"
grep -q "wal closed" "$log" || fail "no wal-closed log line"

echo "== restart recovers acknowledged writes"
: >"$log"
start_server
[ "$(cli g.query 1 2)" = "(integer) 1" ] || fail "edge 1->2 lost across restart"
[ "$(cli g.query 2 4)" = "(integer) 1" ] || fail "edge 2->4 lost across restart"
cli g.info graph | grep -q "edges:3" || fail "recovered edge count != 3"
grep -q "recovered" "$log" || fail "no recovery log line"
kill -TERM "$srv_pid"
wait "$srv_pid" || fail "second shutdown exited non-zero"

echo "server_smoke: OK"

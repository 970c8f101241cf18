#!/usr/bin/env bash
# End-to-end smoke test of WAL-shipping replication: build cgserver and
# cgcli, boot a leader with WAL durability and a follower with
# -replica-of, assert -replica-of with -wal-dir is a usage error,
# bulk-load the leader, wait for the follower to converge, assert the
# follower rejects writes with -READONLY, checkpoint the leader (log
# compaction) and converge again, start a SECOND follower whose
# bootstrap the compaction forces through the streamed snapshot, then
# SIGTERM all three and assert clean drains. Last, a follower of a
# cgserver with no -wal-dir must log the leader's refusal.
#
# Usage: scripts/repl_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
waldir="$work/wal"
llog="$work/leader.log"
flog="$work/replica.log"
f2log="$work/replica2.log"
nlog="$work/nowal.log"
n2log="$work/nowal-replica.log"
laddr="127.0.0.1:16390"
faddr="127.0.0.1:16391"
f2addr="127.0.0.1:16392"
maddr="127.0.0.1:19190"
naddr="127.0.0.1:16393"
n2addr="127.0.0.1:16394"

leader_pid=""
replica_pid=""
replica2_pid=""
nowal_pid=""
nowal_replica_pid=""
cleanup() {
  [ -n "$nowal_replica_pid" ] && kill "$nowal_replica_pid" 2>/dev/null || true
  [ -n "$nowal_pid" ] && kill "$nowal_pid" 2>/dev/null || true
  [ -n "$replica2_pid" ] && kill "$replica2_pid" 2>/dev/null || true
  [ -n "$replica_pid" ] && kill "$replica_pid" 2>/dev/null || true
  [ -n "$leader_pid" ] && kill "$leader_pid" 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "repl_smoke: FAIL: $*" >&2
  [ -f "$llog" ] && sed 's/^/  leader:  /' "$llog" >&2
  [ -f "$flog" ] && sed 's/^/  replica: /' "$flog" >&2
  [ -f "$f2log" ] && sed 's/^/  replica2: /' "$f2log" >&2
  [ -f "$nlog" ] && sed 's/^/  nowal:   /' "$nlog" >&2
  [ -f "$n2log" ] && sed 's/^/  nowal-replica: /' "$n2log" >&2
  exit 1
}

echo "== build"
go build -o "$work/cgserver" ./cmd/cgserver
go build -o "$work/cgcli" ./cmd/cgcli

lcli() { "$work/cgcli" -addr "$laddr" "$@"; }
fcli() { "$work/cgcli" -addr "$faddr" "$@"; }

wait_ping() { # addr pid name
  for _ in $(seq 1 100); do
    if out=$("$work/cgcli" -addr "$1" ping 2>/dev/null) && [ "$out" = "PONG" ]; then return 0; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
    sleep 0.1
  done
  fail "$3 never answered PING"
}

echo "== boot leader + replica"
"$work/cgserver" -addr "$laddr" -wal-dir "$waldir" -wal-sync always \
  -metrics-addr "$maddr" -shutdown-timeout 10s -log-level debug >>"$llog" 2>&1 &
leader_pid=$!
wait_ping "$laddr" "$leader_pid" leader

"$work/cgserver" -addr "$faddr" -replica-of "$laddr" \
  -shutdown-timeout 10s -log-level debug >>"$flog" 2>&1 &
replica_pid=$!
wait_ping "$faddr" "$replica_pid" replica

echo "== flag conflicts rejected"
# A replica keeps no log of its own: -wal-dir is a usage error.
rc=0
timeout 10 "$work/cgserver" -addr 127.0.0.1:16399 -replica-of "$laddr" -wal-dir "$work/bad" >/dev/null 2>&1 || rc=$?
[ "$rc" = 2 ] || fail "-replica-of with -wal-dir exited $rc, want 2"
[ ! -e "$work/bad" ] || fail "a rejected -wal-dir created its directory"

echo "== bulk load the leader"
# 20k edges in batched g.minsert calls: 100 calls x 200 edges.
n=0
for _ in $(seq 1 100); do
  args=()
  for _ in $(seq 1 200); do
    args+=("$((n % 211))" "$n")
    n=$((n + 1))
  done
  lcli g.minsert "${args[@]}" >/dev/null || fail "g.minsert batch"
done
edges=$(lcli g.info graph | grep -o 'edges:[0-9]*' | head -1)
[ "$edges" = "edges:20000" ] || fail "leader edge count $edges, want edges:20000"

echo "== follower converges"
converge() { # [follower addr]
  want=$(lcli g.info graph | grep -o 'edges:[0-9]*' | head -1)
  for _ in $(seq 1 200); do
    got=$("$work/cgcli" -addr "${1:-$faddr}" g.info graph | grep -o 'edges:[0-9]*' | head -1)
    [ "$got" = "$want" ] && return 0
    sleep 0.1
  done
  fail "follower ${1:-$faddr} stuck at $got, leader at $want"
}
converge
[ "$(fcli g.query $((19999 % 211)) 19999)" = "(integer) 1" ] || fail "spot-check edge missing on follower"

echo "== command surface"
lcli command list | grep -qi "g.replicate" || fail "COMMAND LIST missing g.replicate"
lcli command list | grep -qi "g.replack" || fail "COMMAND LIST missing g.replack"

echo "== roles and link state"
lcli g.info replication | grep -q "role:leader" || fail "leader role line"
lcli g.info replication | grep -q "connected_replicas:1" || fail "leader link count"
fcli g.info replication | grep -q "role:replica" || fail "replica role line"
fcli g.info replication | grep -q "state:streaming" || fail "replica not streaming"
curl -fsS "http://$maddr/metrics" | grep -q "cg_repl_connected_replicas 1" || fail "leader repl metric"

echo "== follower rejects writes"
fcli g.insert 9999 9999 2>&1 | grep -q "READONLY" || fail "replica accepted a write (or wrong error class)"
[ "$(fcli g.query 9999 9999)" = "(integer) 0" ] || fail "rejected write mutated the replica"

echo "== compaction + more writes still converge"
lcli checkpoint >/dev/null || fail "leader checkpoint"
args=()
m=0
for _ in $(seq 1 200); do
  args+=("$((500000 + m))" "$((600000 + m))")
  m=$((m + 1))
done
lcli g.minsert "${args[@]}" >/dev/null || fail "post-checkpoint g.minsert"
converge
grep -q "bootstrap snapshot installed" "$flog" || fail "no bootstrap-snapshot log line on replica"

echo "== a second follower bootstraps from the compacted leader"
# Segment 1 is gone with the checkpoint, so 0 0 cannot be served from the
# log: the leader cuts a snapshot and streams it view -> socket.
"$work/cgserver" -addr "$f2addr" -replica-of "$laddr" \
  -shutdown-timeout 10s -log-level debug >>"$f2log" 2>&1 &
replica2_pid=$!
wait_ping "$f2addr" "$replica2_pid" replica2
converge "$f2addr"
f2cli() { "$work/cgcli" -addr "$f2addr" "$@"; }
[ "$(f2cli g.query $((19999 % 211)) 19999)" = "(integer) 1" ] || fail "pre-checkpoint edge missing on second follower"
[ "$(f2cli g.query 500199 600199)" = "(integer) 1" ] || fail "post-checkpoint edge missing on second follower"
f2cli g.info replication | grep -q "snapshots_installed:1" || fail "second follower did not install exactly one snapshot"
grep -q "replication snapshot pushed" "$llog" || fail "leader never logged a snapshot push"
lcli g.info replication | grep -q "connected_replicas:2" || fail "leader link count with two followers"
lcli g.insert 700000 700001 >/dev/null || fail "leader insert with two followers"
converge
converge "$f2addr"

echo "== graceful shutdown"
kill -TERM "$replica2_pid"
wait "$replica2_pid" || fail "second replica exited non-zero on SIGTERM"
replica2_pid=""
kill -TERM "$replica_pid"
wait "$replica_pid" || fail "replica exited non-zero on SIGTERM"
replica_pid=""
grep -q "shutdown complete" "$flog" || fail "no replica shutdown-complete line"

kill -TERM "$leader_pid"
wait "$leader_pid" || fail "leader exited non-zero on SIGTERM"
leader_pid=""
grep -q "shutdown complete" "$llog" || fail "no leader shutdown-complete line"
grep -q "replica disconnected" "$llog" || fail "leader never logged the link teardown"

echo "== a leader with no log refuses its follower"
"$work/cgserver" -addr "$naddr" >>"$nlog" 2>&1 &
nowal_pid=$!
wait_ping "$naddr" "$nowal_pid" "leader without -wal-dir"
"$work/cgserver" -addr "$n2addr" -replica-of "$naddr" >>"$n2log" 2>&1 &
nowal_replica_pid=$!
refused=""
for _ in $(seq 1 100); do
  grep -q "leader rejected stream: ERR g.replicate" "$n2log" && { refused=1; break; }
  kill -0 "$nowal_replica_pid" 2>/dev/null || fail "follower of the leader without a log exited"
  sleep 0.1
done
[ -n "$refused" ] || fail "follower never logged the refusal of a leader without a log"
kill "$nowal_replica_pid" "$nowal_pid"
wait "$nowal_replica_pid" "$nowal_pid" || true
nowal_replica_pid=""
nowal_pid=""

echo "repl_smoke: OK"

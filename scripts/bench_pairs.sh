#!/usr/bin/env bash
# Paired runs of BENCHMARK.json workloads on a parent revision and on
# the working tree — the comparison every performance claim in this repo
# rests on (benchmark/README.md, "Rules for using the numbers"): the two
# sides alternate, and which goes first alternates too, so drift on a
# shared box lands on both. Prints, per workload, one table: for each
# end-to-end metric each side's median [quartiles] and how many pairs
# the change won; ties count for neither side. Several workloads —
# lib_basic,lib_chained_read,… — share one set-up of the parent tree, so
# a should-not-move report over all of them is one command.
#
# The parent is checked out as a git worktree under .bench_build/parent
# and removed on exit; everything this script writes stays under
# .bench_build/. It refuses to run when benchmark/ or BENCHMARK.json
# differ between the two trees: numbers from two different benchmarks do
# not compare.
#
# Usage: scripts/bench_pairs.sh <parent-ref> <workload>[,<workload>…] [pairs=10] [seed=7] [seconds=15]
set -euo pipefail

[ $# -ge 2 ] || { sed -n 's/^# Usage: /usage: /p' "$0" >&2; exit 2; }
ref="$1" pairs="${3:-10}" seed="${4:-7}" seconds="${5:-15}"
IFS=, read -ra workloads <<<"$2"

cd "$(dirname "$0")/.."
root="$(pwd)"
parent="$root/.bench_build/parent"
results="$root/.bench_build/pairs"

fail() { echo "bench_pairs: $*" >&2; exit 1; }

git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || fail "unknown revision $ref"
if ! git diff --quiet "$ref" -- benchmark BENCHMARK.json ||
  [ -n "$(git ls-files --others --exclude-standard -- benchmark BENCHMARK.json)" ]; then
  fail "benchmark/ or BENCHMARK.json differ between $ref and the working tree; a change that claims a gain may not edit them"
fi

cleanup() {
  git worktree remove --force "$parent" 2>/dev/null || true
  git worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$results"
git worktree add --quiet --detach "$parent" "$ref"

# run <side> <tree>: one run of $workload from the root of <tree>; the
# last line run.sh prints is the result object.
run() {
  (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
    tail -n 1 >>"$results/$workload.$1.jsonl"
}

status=0
for workload in "${workloads[@]}"; do
  : >"$results/$workload.parent.jsonl"
  : >"$results/$workload.change.jsonl"
  for i in $(seq "$pairs"); do
    echo "$workload: pair $i/$pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$parent"
      run change "$root"
    else
      run change "$root"
      run parent "$parent"
    fi
  done

  echo "$workload, seed $seed, $seconds s, $pairs pairs: parent $(git rev-parse --short "$ref") vs working tree"
  python3 - "$root/BENCHMARK.json" "$results/$workload.parent.jsonl" "$results/$workload.change.jsonl" <<'EOF' || status=1
import json, statistics, sys

decl, parent, change = sys.argv[1:]
runs = {side: [json.loads(line) for line in open(path)] for side, path in (("parent", parent), ("change", change))}
bad = [f"{side} run {i + 1}" for side, rs in runs.items() for i, r in enumerate(rs) if not r["correct"] or r["failed"]]

def spread(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"{'metric':<22}{'parent median [q1, q3]':<42}{'change median [q1, q3]':<42}{'change':>8}  wins")
for m in json.load(open(decl))["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    ties = sum(x == y for x, y in zip(p, c))
    (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
    delta = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
    cell = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
    print(f"{name:<22}{cell(pm, p1, p3):<42}{cell(cm, c1, c3):<42}{delta:>8}  change wins {wins}/{len(p) - ties}")
if bad:
    sys.exit("bench_pairs: failed operations or a failed check in: " + ", ".join(bad))
EOF
done
exit $status

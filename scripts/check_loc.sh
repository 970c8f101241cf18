#!/usr/bin/env bash
# check_loc.sh [ratchet-file]
#
# Counts the repo's tracked number — lines of *.go that are not _test.go
# and not under benchmark/ (ROADMAP north-star 2) — and fails when the
# count exceeds the checked-in ratchet.
#
# The ratchet only moves down: a PR that deletes code lowers the file to
# the new count; a PR that needs more lines says why and raises it in
# the same diff, where a reviewer sees it. Stripping comments, joining
# lines or moving code into _test.go files to get under the number is
# not a reduction.
set -euo pipefail

cd "$(dirname "$0")/.."
ratchet_file="${1:-ci/loc_ratchet.txt}"

count=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
    xargs -0 cat | wc -l | tr -d '[:space:]')
max=$(tr -d '[:space:]' < "$ratchet_file")

if [ "$count" -gt "$max" ]; then
    echo "FAIL: $count tracked non-test Go lines exceed the ratchet $max ($ratchet_file)"
    exit 1
fi
echo "OK: $count tracked non-test Go lines <= ratchet $max"

#!/bin/sh
# Prints one sha256 line per artifact. For every bundled design:
# goldmine -canonical and coverage -directed at 512 cycles, at -j 1 and -j 4;
# the random-stimulus coverage report with its uncovered points (512 cycles);
# the same report with GoldMine counterexamples added (64 cycles, -goldmine);
# and the goldmine report with minimised counterexample patterns (-minimize,
# without the total: line, which carries formal wall time). Then the paper's
# tables and figures (experiments -j 2, without the per-experiment timing
# lines). verify.sh diffs this listing against scripts/golden.sha256, so an
# artifact that changes between commits fails the gate, not only one that
# changes between worker counts. A change that alters an artifact on purpose
# re-records the file:
#
#     scripts/golden.sh > scripts/golden.sha256
set -eu

cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/goldmine" ./cmd/goldmine
go build -o "$bin/coverage" ./cmd/coverage
go build -o "$bin/experiments" ./cmd/experiments

for d in $("$bin/goldmine" -list | while read -r name _; do echo "$name"; done); do
    for j in 1 4; do
        h=$("$bin/goldmine" -design "$d" -canonical -j "$j" | sha256sum | cut -d' ' -f1)
        echo "$h  goldmine -design $d -canonical -j $j"
        h=$("$bin/coverage" -design "$d" -cycles 512 -directed -j "$j" | sha256sum | cut -d' ' -f1)
        echo "$h  coverage -design $d -cycles 512 -directed -j $j"
    done
    h=$("$bin/coverage" -design "$d" -cycles 512 -uncovered | sha256sum | cut -d' ' -f1)
    echo "$h  coverage -design $d -cycles 512 -uncovered"
    h=$("$bin/coverage" -design "$d" -cycles 64 -goldmine -uncovered -j 4 | sha256sum | cut -d' ' -f1)
    echo "$h  coverage -design $d -cycles 64 -goldmine -uncovered -j 4"
    h=$("$bin/goldmine" -design "$d" -minimize -j 4 | grep -v '^total:' | sha256sum | cut -d' ' -f1)
    echo "$h  goldmine -design $d -minimize -j 4 | grep -v '^total:'"
done
h=$("$bin/experiments" -j 2 | grep -v 'completed in' | sha256sum | cut -d' ' -f1)
echo "$h  experiments -j 2 | grep -v 'completed in'"

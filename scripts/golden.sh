#!/bin/sh
# Prints one sha256 line per artifact: goldmine -canonical and
# coverage -directed at 512 cycles, for every bundled design, at -j 1 and
# -j 4. verify.sh diffs this listing against scripts/golden.sha256, so an
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

for d in $("$bin/goldmine" -list | while read -r name _; do echo "$name"; done); do
    for j in 1 4; do
        h=$("$bin/goldmine" -design "$d" -canonical -j "$j" | sha256sum | cut -d' ' -f1)
        echo "$h  goldmine -design $d -canonical -j $j"
        h=$("$bin/coverage" -design "$d" -cycles 512 -directed -j "$j" | sha256sum | cut -d' ' -f1)
        echo "$h  coverage -design $d -cycles 512 -directed -j $j"
    done
done

#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mine|close|reduce --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and the reduce workload's temporary
# corpus journals all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own telemetry and settings files in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/bin/sh
# Scheduler benchmark: mines the arbiters and the Rigel-like pipeline stages
# sequentially, in parallel, and against a warm shared verdict cache, then
# writes the machine-readable report to BENCH_sched.json (override with $1).
#
# Fields per design: seq_ms / par_ms / warm_ms wall times, speedup
# (seq/par; bounded by the host's core count — ~1x on a single-CPU machine),
# cache hit rates, and the -j1 ≡ -jN determinism check.
#
# Also writes BENCH_mc.json (override with $2): fresh-session (one throwaway
# mc.Session per check) vs pooled mc.Session wall times over mined assertion
# suites (all 18 bundled designs),
# per-design speedups, and the portfolio columns — cold-batch wall times of
# the solo incremental ladder vs racing diversified SAT lanes on
# predicted-hard checks (cold_solo_ms / portfolio_ms / portfolio_speedup /
# portfolio_races, plus the portfolio_geomean_raced summary over the designs
# the difficulty router actually raced). Every path's verdicts and canonical
# counterexamples are cross-checked byte-for-byte (results_match). See
# DESIGN.md sections 4.3 and 4.8.
#
# Also writes BENCH_telemetry.json (override with $3): full mining runs with
# the observability layer off vs on (JSONL journal to a discarding sink),
# per-design overhead percentages, journal volume/drop accounting, and the
# span taxonomy observed. Overhead scales with journal event volume; see
# DESIGN.md section 4.4 for the measured envelope.
#
# Also writes BENCH_sim.json (override with $4): tree-walking interpreter vs
# compiled instruction tape vs 64-lane bit-parallel batch engine, per design —
# ns/cycle, ns/lane-cycle, paired-median speedups, and the trace-equality
# cross-check (compiled trace and batch lane 0 must reproduce the interpreter
# row-for-row). See DESIGN.md section 4.5.
#
# Also writes BENCH_serve.json (override with $5): the goldmined daemon load
# harness — jobs/sec and p50/p99 latency on a pooled engine fleet, cold vs
# warm cross-run verdict-cache hit rates, engine pool reuse, and kill/restart
# durability (recovery time, jobs re-served from the WAL without
# recomputation, byte-identity across the crash). See DESIGN.md section 4.6.
#
# Also writes BENCH_cover.json (override with $6): the coverage-closure
# benchmark — per design, the coverage curves of pure random, the paper-style
# CEX-only suite, and the SAT-directed closure loop at the same total-cycle
# budget, plus per-hole SAT/fuzz/shared/dead accounting. The adaptive engine
# columns — time-to-closure wall times (random_wall_ms / cex_wall_ms /
# directed_wall_ms), reach-query counts (directed_reach_{calls,solves}),
# the reach_queries_reduced and directed_not_worse_than_legacy gates against
# the fixed-depth legacy loop's per-design solves and open holes (frozen in
# internal/experiments/coverbench.go from the legacy_* columns of the
# committed BENCH_cover.json; the loop itself is deleted, so a regenerated
# file has no legacy_* columns), and the k-induction proven-dead holes
# (dead_holes). See DESIGN.md sections 4.7 and 4.10.
#
# Also writes BENCH_corpus.json (override with $7): the assertion-corpus
# benchmark — per design, two mining configurations ingested into one corpus
# (cross-run canonical-key dedup), cone-signature clustering with subsumption
# collapse, and oracle-ranked greedy suite reduction, with the retained
# mutant-kill and coverage percentages. See DESIGN.md section 4.9.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_sched.json}"
out2="${2:-BENCH_mc.json}"
out3="${3:-BENCH_telemetry.json}"
out4="${4:-BENCH_sim.json}"
out5="${5:-BENCH_serve.json}"
out6="${6:-BENCH_cover.json}"
out7="${7:-BENCH_corpus.json}"
jobs="${JOBS:-4}"

go run ./cmd/experiments -sched-bench "$out" -j "$jobs"
echo "bench: wrote $out (workers=$jobs)"

go run ./cmd/experiments -mc-bench "$out2"
echo "bench: wrote $out2"

go run ./cmd/experiments -telemetry-bench "$out3"
echo "bench: wrote $out3"

go run ./cmd/experiments -sim-bench "$out4"
echo "bench: wrote $out4"

go run ./cmd/experiments -serve-bench "$out5" -j "$jobs"
echo "bench: wrote $out5 (workers=$jobs)"

go run ./cmd/experiments -cover-bench "$out6" -j "$jobs"
echo "bench: wrote $out6 (workers=$jobs)"

go run ./cmd/experiments -corpus-bench "$out7" -j "$jobs"
echo "bench: wrote $out7 (workers=$jobs)"

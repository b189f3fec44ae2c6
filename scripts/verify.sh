#!/bin/sh
# Repo verification gate: tier-1 build+test, closure digests, vet, gofmt, fuzz smoke, artifact
# hashes pinned across commits (scripts/golden.sha256), race-enabled suite,
# and a short-budget smoke run proving cmd/goldmine exits cleanly under a
# deadline (0 = completed, 2 = clean partial flush; anything else is a
# failure).
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== closure digests: all eight pinned seeds =="
# go test ./... above checks seeds 1 and 2; this leg pins every closure
# outcome on the close workload's designs at all eight seeds (~2 s). The
# flag goes after the package: placed before it, go test hands the package
# path to the test binary and tests the current directory instead.
go test -count=1 -run '^TestClosureDigest$' ./internal/stimgen -args -closure-digest-seeds 8

echo "== go vet ./... =="
go vet ./...

echo "== gofmt: every Go file is formatted =="
# Lists the files gofmt would change and fails if there are any. perfbench's
# build directory is skipped: it holds the Go build cache, not sources.
unformatted=$(gofmt -l $(find . -path ./.bench_build -prune -o -name '*.go' -print))
if [ -n "$unformatted" ]; then
    echo "gofmt: FAILED, run gofmt -w on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "gofmt: clean"

echo "== fuzz smoke: every go test -fuzz target for 10s =="
# go test ./... above runs only the seed corpora; this leg runs the fuzz
# engine itself on each target: the decision-scope rule of the SAT solver,
# trail reuse between solves, the solver's lazily loaded decision order,
# the JSONL replay/torn-tail rule, the corpus journal's line decoder ≡ the
# json.Unmarshal path it replaced,
# batch-engine ≡ interpreter, packed hole hits ≡ Hole.Hit per lane (on
# programs with compiled coverage points, so branch and condition holes
# read their point words), the
# packed coverage collector ≡ the interpreter's Observe, the
# packed assertion monitor ≡ the scalar monitor per lane, and the
# parser/elaborator never panicking. A failing input lands in the package's
# testdata/fuzz, ready to commit as a seed.
go test -run '^$' -fuzz '^FuzzScopedSolve$' -fuzztime 10s -parallel 2 ./internal/cnf
go test -run '^$' -fuzz '^FuzzTrailReuse$' -fuzztime 10s -parallel 2 ./internal/sat
go test -run '^$' -fuzz '^FuzzDecisionOrder$' -fuzztime 10s -parallel 2 ./internal/sat
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s -parallel 2 ./internal/jsonl
go test -run '^$' -fuzz '^FuzzDecodeEntryLine$' -fuzztime 10s -parallel 2 ./internal/corpus
go test -run '^$' -fuzz '^FuzzBatchMatchesInterpreter$' -fuzztime 10s -parallel 2 ./internal/simc
go test -run '^$' -fuzz '^FuzzHitMaskMatchesHit$' -fuzztime 10s -parallel 2 ./internal/holes
go test -run '^$' -fuzz '^FuzzPackedCollectorMatchesObserve$' -fuzztime 10s -parallel 2 ./internal/coverage
go test -run '^$' -fuzz '^FuzzPackedMonitor$' -fuzztime 10s -parallel 2 ./internal/monitor
go test -run '^$' -fuzz '^FuzzElaborateSource$' -fuzztime 10s -parallel 2 ./internal/rtl

echo "== artifacts match scripts/golden.sha256 (every design, -j 1 and -j 4) =="
# The -j1 ≡ -j4 legs below pin determinism within one commit; this leg pins
# the artifacts across commits: goldmine -canonical and coverage -directed
# on every bundled design must hash to the committed listing. A change that
# alters an artifact on purpose re-records it (scripts/golden.sh).
if ! scripts/golden.sh | diff scripts/golden.sha256 -; then
    echo "golden: FAILED (artifacts differ from scripts/golden.sha256)" >&2
    exit 1
fi
echo "golden: $(wc -l <scripts/golden.sha256) artifact hashes match"

echo "== go test -race ./... =="
go test -race ./...

echo "== smoke: goldmine on arbiter2 under a 1s deadline =="
tmpbin="$(mktemp -d)"
trap 'rm -rf "$tmpbin"' EXIT
go build -o "$tmpbin/goldmine" ./cmd/goldmine
status=0
"$tmpbin/goldmine" -design arbiter2 -timeout 1s >/dev/null || status=$?
case "$status" in
0) echo "smoke: completed within deadline" ;;
2) echo "smoke: clean partial flush under deadline" ;;
*) echo "smoke: FAILED (exit $status)" >&2; exit 1 ;;
esac

echo "== smoke: parallel mining (-j 4) matches sequential (-j 1) =="
"$tmpbin/goldmine" -design arbiter4 -j 1 >"$tmpbin/j1.txt"
"$tmpbin/goldmine" -design arbiter4 -j 4 -sched-stats >"$tmpbin/j4.txt" 2>"$tmpbin/sched.txt"
# The total line carries wall-clock telemetry; everything above it must be
# byte-identical across worker counts.
grep -v '^total:' "$tmpbin/j1.txt" >"$tmpbin/j1.art"
grep -v '^total:' "$tmpbin/j4.txt" >"$tmpbin/j4.art"
if ! diff "$tmpbin/j1.art" "$tmpbin/j4.art"; then
    echo "smoke: FAILED (-j 4 artifacts differ from -j 1)" >&2
    exit 1
fi
echo "smoke: -j 4 artifacts identical to -j 1 ($(cat "$tmpbin/sched.txt"))"

echo "== smoke: batch-engine mining is deterministic (-j1 ≡ -j4) =="
# Seed and counterexample simulation run on the 64-lane batch engine (one
# stimulus as lane 0; forked engines share one compiled program). Its
# equality with the interpreter is checked by the go tests above
# (TestCompiledMiningCanonical, TestCompiledSimulateMatchesInterpreter,
# TestRunVCDIdenticalAcrossEngines and the internal/simc differential tests);
# here the artifacts must not depend on the worker count.
for d in arbiter4 fetch b09; do
    "$tmpbin/goldmine" -design "$d" -max-iter 6 -j 1 >"$tmpbin/comp.txt"
    "$tmpbin/goldmine" -design "$d" -max-iter 6 -j 4 >"$tmpbin/comp4.txt"
    grep -v '^total:' "$tmpbin/comp.txt"  >"$tmpbin/comp.art"
    grep -v '^total:' "$tmpbin/comp4.txt" >"$tmpbin/comp4.art"
    if ! diff "$tmpbin/comp.art" "$tmpbin/comp4.art"; then
        echo "smoke: FAILED ($d: batch-engine -j 4 artifacts differ from -j 1)" >&2
        exit 1
    fi
    echo "smoke: $d batch engine -j1 ≡ -j4"
done

echo "== smoke: telemetry journal is well-formed and covers every phase =="
# Mine the fetch stage with the JSONL journal on: telcheck re-parses every
# line, checks span-tree well-formedness (parents resolve, intervals nest)
# and the close trailer, and requires at least one span from each layer of
# the refinement loop — mining, simulation, scheduling, model checking, SAT.
go build -o "$tmpbin/telcheck" ./cmd/telcheck
"$tmpbin/goldmine" -design fetch -max-iter 6 -telemetry "$tmpbin/tel.jsonl" >/dev/null
"$tmpbin/telcheck" \
    -require mine.run,mine.output,mine.iteration,mine.candidates,mine.tree_update,sim.run,sched.cache_probe,mc.check,mc.bmc_frame,mc.induction_step,sat.solve \
    "$tmpbin/tel.jsonl"

echo "== smoke: telemetry does not perturb artifacts (-j1 ≡ -j4, journal on) =="
"$tmpbin/goldmine" -design arbiter4 -j 1 -telemetry "$tmpbin/t1.jsonl" >"$tmpbin/t1.txt"
"$tmpbin/goldmine" -design arbiter4 -j 4 -telemetry "$tmpbin/t4.jsonl" >"$tmpbin/t4.txt"
grep -v '^total:' "$tmpbin/t1.txt" >"$tmpbin/t1.art"
grep -v '^total:' "$tmpbin/t4.txt" >"$tmpbin/t4.art"
if ! diff "$tmpbin/t1.art" "$tmpbin/t4.art"; then
    echo "smoke: FAILED (artifacts differ across -j with telemetry enabled)" >&2
    exit 1
fi
"$tmpbin/telcheck" "$tmpbin/t4.jsonl" >/dev/null
echo "smoke: telemetry-enabled artifacts identical across worker counts"

echo "== smoke: coverage closure — directed beats random at equal cycle budget =="
# The closure loop (SAT-directed stimulus aimed at coverage holes) must leave
# no more holes open than pure random at the same total-cycle budget, and must
# strictly close at least one hole random leaves open on at least one of the
# two designs. Race-enabled binary: the directed fan-out is the concurrent
# part under test.
go build -race -o "$tmpbin/coverage_race" ./cmd/coverage
closure_strict=0
for d in b12 decode; do
    "$tmpbin/coverage_race" -design "$d" -cycles 512 -holes-json >"$tmpbin/rand.json"
    "$tmpbin/coverage_race" -design "$d" -cycles 512 -directed -holes-json -j 4 >"$tmpbin/dir.json"
    r=$(grep -c '"key"' "$tmpbin/rand.json" || true)
    c=$(grep -c '"key"' "$tmpbin/dir.json" || true)
    if [ "$c" -gt "$r" ]; then
        echo "smoke: FAILED ($d: directed leaves $c holes open vs $r for random)" >&2
        exit 1
    fi
    [ "$c" -lt "$r" ] && closure_strict=1
    echo "smoke: $d open holes at 512 cycles: random=$r directed=$c"
done
if [ "$closure_strict" != 1 ]; then
    echo "smoke: FAILED (directed never strictly beat random on b12/decode)" >&2
    exit 1
fi

echo "== smoke: closure is deterministic and its journal validates =="
# b17 is the design where the focused-fuzz fallback dominates closure time.
for d in decode b17; do
    "$tmpbin/coverage_race" -design "$d" -cycles 512 -directed -j 1 >"$tmpbin/cc1.txt"
    "$tmpbin/coverage_race" -design "$d" -cycles 512 -directed -j 4 >"$tmpbin/cc4.txt"
    if ! diff "$tmpbin/cc1.txt" "$tmpbin/cc4.txt"; then
        echo "smoke: FAILED ($d: closure output differs between -j 1 and -j 4)" >&2
        exit 1
    fi
done
"$tmpbin/goldmine" -design decode -close-coverage -cover-cycles 512 \
    -telemetry "$tmpbin/cc.jsonl" >/dev/null
"$tmpbin/telcheck" \
    -require directed.run,directed.iteration,directed.wave,directed.hole,mc.reach,mc.reach_frame,mc.reach_induction,sat.solve \
    "$tmpbin/cc.jsonl"
echo "smoke: closure -j1 ≡ -j4 and the directed telemetry journal validates"

echo "== smoke: adaptive closure beats the legacy engine and prunes dead code =="
# The adaptive engine (witness sharing + adaptive depth + k-induction pruning)
# must issue strictly fewer SAT solves than the fixed-depth legacy loop did at
# the same budget, and must prove at least one hole dead on b12. The legacy
# loop is gone; leg_solves is its recorded b12 count at this exact invocation
# (600 at -j 1 and -j 4; the b12 row of the frozen legacy table, coverRows in
# internal/experiments/gates_test.go). With a
# dead-hole corpus, a rerun re-proves nothing and the pruned holes never
# reappear in the hole listing.
leg_solves=600
"$tmpbin/coverage_race" -design b12 -cycles 512 -directed -j 4 >"$tmpbin/ada.txt"
ada_solves=$(sed -n 's/.*reach: calls=[0-9]* solves=\([0-9]*\).*/\1/p' "$tmpbin/ada.txt")
if [ "$ada_solves" -ge "$leg_solves" ]; then
    echo "smoke: FAILED (b12: adaptive issued $ada_solves solves vs $leg_solves legacy)" >&2
    exit 1
fi
if ! grep -q 'dead: total=[1-9]' "$tmpbin/ada.txt"; then
    echo "smoke: FAILED (b12: adaptive closure proved no hole dead)" >&2
    exit 1
fi
echo "smoke: b12 reach solves: legacy=$leg_solves adaptive=$ada_solves"
"$tmpbin/coverage_race" -design b12 -cycles 512 -directed -j 4 \
    -dead-corpus "$tmpbin/dead.jsonl" >"$tmpbin/dc1.txt"
"$tmpbin/coverage_race" -design b12 -cycles 512 -directed -j 4 \
    -dead-corpus "$tmpbin/dead.jsonl" >"$tmpbin/dc2.txt"
if ! grep -q 'new=0$' "$tmpbin/dc2.txt"; then
    echo "smoke: FAILED (b12: rerun against the dead corpus re-proved holes)" >&2
    grep 'dead:' "$tmpbin/dc2.txt" >&2
    exit 1
fi
rerun_solves=$(sed -n 's/.*reach: calls=[0-9]* solves=\([0-9]*\).*/\1/p' "$tmpbin/dc2.txt")
if [ "$rerun_solves" -ge "$ada_solves" ]; then
    echo "smoke: FAILED (b12: dead corpus did not cut the rerun's solves: $rerun_solves vs $ada_solves)" >&2
    exit 1
fi
"$tmpbin/coverage_race" -design b12 -cycles 512 -directed -j 4 \
    -dead-corpus "$tmpbin/dead.jsonl" -holes-json >"$tmpbin/dc_holes.json"
for key in $(sed -n 's/.*"key":"\([^"]*\)".*/\1/p' "$tmpbin/dead.jsonl"); do
    if grep -qF "\"$key\"" "$tmpbin/dc_holes.json"; then
        echo "smoke: FAILED (pruned-dead hole $key reappeared in -holes-json)" >&2
        exit 1
    fi
done
echo "smoke: b12 dead corpus persists (rerun solves=$rerun_solves, pruned holes stay gone)"

echo "== cross-check: pooled sessions are deterministic on every design (race, -j1 ≡ -j4) =="
# Pooled ≡ fresh sessions is TestIncrementalMatchesFresh (internal/core):
# every bundled design at -j 1 and -j 4, pooled sessions diffed against a
# fresh checker substituted through Engine.SetChecker; the go test -race
# leg above runs it under the race detector. Here a race-enabled binary
# mines every design with pooled sessions shared by four workers, and the
# artifacts must equal the -j 1 run; only the total: wall clock line may
# differ. -max-iter 8 bounds the refinement loop so the sweep stays a few
# minutes under the race detector.
go build -race -o "$tmpbin/goldmine_race" ./cmd/goldmine
for d in $("$tmpbin/goldmine" -list | while read -r name _; do echo "$name"; done); do
    "$tmpbin/goldmine" -design "$d" -max-iter 8 -j 1 >"$tmpbin/seq.txt"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -j 4 >"$tmpbin/par.txt"
    grep -v '^total:' "$tmpbin/seq.txt" >"$tmpbin/seq.art"
    grep -v '^total:' "$tmpbin/par.txt" >"$tmpbin/par.art"
    if ! diff "$tmpbin/seq.art" "$tmpbin/par.art" >/dev/null; then
        echo "cross-check: FAILED ($d: -j 4 pooled-session artifacts differ from -j 1)" >&2
        diff "$tmpbin/seq.art" "$tmpbin/par.art" | head >&2
        exit 1
    fi
    echo "cross-check: $d OK (-j1 ≡ -j4, race)"
done

echo "== smoke: batched check lanes are deterministic (race, -j1 ≡ -j4) =="
# -batched fans each iteration's leaf checks out over the shared check lanes,
# dispatched in candidate order; results merge positionally, so the
# artifacts above the total: line must not depend on the lane count.
# Race-enabled binary: the lane fan-out is the concurrent part under test.
for d in arbiter4 fetch b12; do
    "$tmpbin/goldmine_race" -design "$d" -batched -j 1 >"$tmpbin/bat1.txt"
    "$tmpbin/goldmine_race" -design "$d" -batched -j 4 >"$tmpbin/bat4.txt"
    grep -v '^total:' "$tmpbin/bat1.txt" >"$tmpbin/bat1.art"
    grep -v '^total:' "$tmpbin/bat4.txt" >"$tmpbin/bat4.art"
    if ! diff "$tmpbin/bat1.art" "$tmpbin/bat4.art"; then
        echo "smoke: FAILED ($d: -batched -j 4 artifacts differ from -batched -j 1)" >&2
        exit 1
    fi
    echo "smoke: $d -batched -j1 ≡ -j4"
done

echo "== smoke: corpus reduction is deterministic (race, -j1 ≡ -j4, persisted corpus) =="
# goldmine -reduce must emit the byte-identical reduced suite regardless of
# mining parallelism, and repeated runs against the same persisted corpus
# journal must agree from the second run on (run 1 differs only in its
# "loaded" count — the corpus file is empty before it).
for d in arbiter2 b10; do
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -reduce -j 1 >"$tmpbin/red1.txt"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -reduce -j 4 >"$tmpbin/red4.txt"
    grep -v '^total:' "$tmpbin/red1.txt" >"$tmpbin/red1.art"
    grep -v '^total:' "$tmpbin/red4.txt" >"$tmpbin/red4.art"
    if ! diff "$tmpbin/red1.art" "$tmpbin/red4.art"; then
        echo "smoke: FAILED ($d: -reduce output differs between -j 1 and -j 4)" >&2
        exit 1
    fi
    rm -f "$tmpbin/corpus.jsonl"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -reduce \
        -corpus "$tmpbin/corpus.jsonl" >/dev/null
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -reduce \
        -corpus "$tmpbin/corpus.jsonl" -j 1 >"$tmpbin/crp2.txt"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -reduce \
        -corpus "$tmpbin/corpus.jsonl" -j 4 >"$tmpbin/crp3.txt"
    grep -v '^total:' "$tmpbin/crp2.txt" >"$tmpbin/crp2.art"
    grep -v '^total:' "$tmpbin/crp3.txt" >"$tmpbin/crp3.art"
    if ! diff "$tmpbin/crp2.art" "$tmpbin/crp3.art"; then
        echo "smoke: FAILED ($d: repeated runs from the persisted corpus differ)" >&2
        exit 1
    fi
    echo "smoke: $d -reduce deterministic (fresh and from the persisted corpus)"
done



echo "== smoke: goldmined kill/restart durability =="
# Start the daemon with a durable job journal, submit a quick job and a long
# one, SIGKILL the daemon while the long job is mid-flight, restart it on the
# same journal, and require: the finished job is re-served from the journal
# (no recomputation) byte-identical to a fresh CLI -canonical run, the
# interrupted job resumes and completes, and a SIGTERM then drains to exit 0.
# A torn record is left at the kill point and one more job is submitted after
# the restart: a third start must still list every job ID handed out.
go build -o "$tmpbin/goldmined" ./cmd/goldmined
"$tmpbin/goldmined" -addr 127.0.0.1:0 -addr-file "$tmpbin/addr" \
    -wal "$tmpbin/jobs.wal" -telemetry "$tmpbin/gd1.jsonl" 2>"$tmpbin/gd1.log" &
gd_pid=$!
for _ in $(seq 1 50); do [ -s "$tmpbin/addr" ] && break; sleep 0.1; done
addr="$(cat "$tmpbin/addr")"
curl -sf -X POST "http://$addr/v1/jobs" -d '{"tenant":"ci","design":"arbiter2"}' >/dev/null
curl -sf -X POST "http://$addr/v1/jobs" -d '{"tenant":"ci","design":"arbiter4"}' >/dev/null
# Wait for the quick job to finish and snapshot its artifact.
for _ in $(seq 1 100); do
    state="$(curl -sf "http://$addr/v1/jobs/j000000" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    [ "$state" = "done" ] && break
    sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke: FAILED (quick job never finished)" >&2; exit 1; }
curl -sf "http://$addr/v1/jobs/j000000/artifact" >"$tmpbin/pre_kill.art"
# Kill -9 while the long job is running.
for _ in $(seq 1 100); do
    state="$(curl -sf "http://$addr/v1/jobs/j000001" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    [ "$state" = "running" ] && break
    sleep 0.1
done
[ "$state" = "running" ] || { echo "smoke: FAILED (long job never started)" >&2; exit 1; }
kill -9 "$gd_pid"
wait "$gd_pid" 2>/dev/null || true
# The half-written record a SIGKILL mid-append leaves behind.
printf '{"ts_us":1,"kind":"job","name":"done","attrs":{"id":"j0000' >>"$tmpbin/jobs.wal"
echo "smoke: daemon SIGKILLed with j000001 mid-flight, torn record at the tail"

"$tmpbin/goldmined" -addr 127.0.0.1:0 -addr-file "$tmpbin/addr2" \
    -wal "$tmpbin/jobs.wal" -telemetry "$tmpbin/gd2.jsonl" 2>"$tmpbin/gd2.log" &
gd_pid=$!
for _ in $(seq 1 50); do [ -s "$tmpbin/addr2" ] && break; sleep 0.1; done
addr="$(cat "$tmpbin/addr2")"
# The finished job is served from the journal, flagged recovered, unchanged.
if ! curl -sf "http://$addr/v1/jobs/j000000" | grep -q '"recovered": true'; then
    echo "smoke: FAILED (completed job was not recovered from the journal)" >&2
    exit 1
fi
curl -sf "http://$addr/v1/jobs/j000000/artifact" >"$tmpbin/post_kill.art"
if ! diff "$tmpbin/pre_kill.art" "$tmpbin/post_kill.art"; then
    echo "smoke: FAILED (recovered artifact differs from pre-kill artifact)" >&2
    exit 1
fi
"$tmpbin/goldmine" -design arbiter2 -canonical >"$tmpbin/cli.art"
if ! diff "$tmpbin/post_kill.art" "$tmpbin/cli.art"; then
    echo "smoke: FAILED (recovered artifact differs from fresh CLI -canonical run)" >&2
    exit 1
fi
# The interrupted job resumes after restart and completes.
state=""
for _ in $(seq 1 600); do
    state="$(curl -sf "http://$addr/v1/jobs/j000001" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    [ "$state" = "done" ] && break
    sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke: FAILED (interrupted job never resumed; state=$state)" >&2; exit 1; }
curl -sf "http://$addr/v1/jobs/j000001/artifact" >"$tmpbin/resumed.art"
"$tmpbin/goldmine" -design arbiter4 -canonical >"$tmpbin/cli4.art"
if ! diff "$tmpbin/resumed.art" "$tmpbin/cli4.art"; then
    echo "smoke: FAILED (resumed artifact differs from fresh CLI -canonical run)" >&2
    exit 1
fi
# A job submitted after the restart is appended past the cut-off torn tail.
ids="j000000 j000001 $(curl -sf -X POST "http://$addr/v1/jobs" -d '{"tenant":"ci","design":"arbiter2"}' |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
# SIGTERM drains: exit 0, and the daemon's telemetry journal validates.
kill -TERM "$gd_pid"
if ! wait "$gd_pid"; then
    echo "smoke: FAILED (goldmined did not exit 0 on SIGTERM drain)" >&2
    exit 1
fi
"$tmpbin/telcheck" "$tmpbin/gd2.jsonl" >/dev/null
# A third start on the same journal lists every job ID handed out.
"$tmpbin/goldmined" -addr 127.0.0.1:0 -addr-file "$tmpbin/addr3" \
    -wal "$tmpbin/jobs.wal" 2>"$tmpbin/gd3.log" &
gd_pid=$!
for _ in $(seq 1 50); do [ -s "$tmpbin/addr3" ] && break; sleep 0.1; done
if [ ! -s "$tmpbin/addr3" ]; then
    echo "smoke: FAILED (daemon did not restart on its own journal)" >&2
    cat "$tmpbin/gd3.log" >&2
    exit 1
fi
addr="$(cat "$tmpbin/addr3")"
curl -sf "http://$addr/v1/jobs" >"$tmpbin/jobs3.json"
for id in $ids; do
    if ! grep -q "\"id\": \"$id\"" "$tmpbin/jobs3.json"; then
        echo "smoke: FAILED (job $id lost across restarts)" >&2
        exit 1
    fi
done
kill -TERM "$gd_pid"
if ! wait "$gd_pid"; then
    echo "smoke: FAILED (restarted goldmined did not exit 0 on SIGTERM drain)" >&2
    exit 1
fi
echo "smoke: goldmined recovered the finished job from the journal, resumed the killed one, drained on SIGTERM, kept $ids past a torn tail"
echo "verify: OK"

#!/bin/sh
# Repo verification gate: tier-1 build+test, vet, race-enabled suite, and a
# short-budget smoke run proving cmd/goldmine exits cleanly under a deadline
# (0 = completed, 2 = clean partial flush; anything else is a failure).
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: go build ./... && go test ./... =="
go build ./...
go test ./...

echo "== go vet ./... =="
go vet ./...

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

echo "== smoke: compiled simulator matches the interpreter byte-for-byte =="
# The compiled instruction-tape simulator (default) must leave every artifact
# untouched: same seed, -compiled=false vs true, and -j1 vs -j4 with the
# compiled engine on, all byte-identical above the total: wall-clock line.
for d in arbiter4 fetch b09; do
    "$tmpbin/goldmine" -design "$d" -max-iter 6 -compiled=false >"$tmpbin/interp.txt"
    "$tmpbin/goldmine" -design "$d" -max-iter 6 -compiled=true  >"$tmpbin/comp.txt"
    "$tmpbin/goldmine" -design "$d" -max-iter 6 -compiled=true -j 4 >"$tmpbin/comp4.txt"
    grep -v '^total:' "$tmpbin/interp.txt" >"$tmpbin/interp.art"
    grep -v '^total:' "$tmpbin/comp.txt"  >"$tmpbin/comp.art"
    grep -v '^total:' "$tmpbin/comp4.txt" >"$tmpbin/comp4.art"
    if ! diff "$tmpbin/interp.art" "$tmpbin/comp.art"; then
        echo "smoke: FAILED ($d: compiled artifacts differ from interpreter)" >&2
        exit 1
    fi
    if ! diff "$tmpbin/comp.art" "$tmpbin/comp4.art"; then
        echo "smoke: FAILED ($d: compiled -j 4 artifacts differ from -j 1)" >&2
        exit 1
    fi
    echo "smoke: $d compiled ≡ interpreter (and -j1 ≡ -j4)"
done

echo "== smoke: rtlsim -compiled output identical to the interpreter =="
go build -o "$tmpbin/rtlsim" ./cmd/rtlsim
"$tmpbin/rtlsim" -design b06 -cycles 200 -seed 7 -compiled=false >"$tmpbin/rs_i.txt"
"$tmpbin/rtlsim" -design b06 -cycles 200 -seed 7 -compiled=true  >"$tmpbin/rs_c.txt"
if ! diff "$tmpbin/rs_i.txt" "$tmpbin/rs_c.txt"; then
    echo "smoke: FAILED (rtlsim compiled output differs from interpreter)" >&2
    exit 1
fi
echo "smoke: rtlsim compiled ≡ interpreter"

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
"$tmpbin/coverage_race" -design decode -cycles 512 -directed -j 1 >"$tmpbin/cc1.txt"
"$tmpbin/coverage_race" -design decode -cycles 512 -directed -j 4 >"$tmpbin/cc4.txt"
if ! diff "$tmpbin/cc1.txt" "$tmpbin/cc4.txt"; then
    echo "smoke: FAILED (closure output differs between -j 1 and -j 4)" >&2
    exit 1
fi
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
# (600 at -j 1 and -j 4, the legacy_reach_solves of BENCH_cover.json). With a
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

echo "== cross-check: pooled ≡ fresh ≡ portfolio sessions (race) =="
# Every bundled design, race-enabled binary, with (a) pooled sessions + the
# cone-of-influence path and (b) the racing SAT portfolio (-portfolio 3)
# diffed against fresh sessions (one throwaway mc.Session per check) with the
# full encoding. Verdicts and counterexamples must be byte-identical; only
# the total: wall clock line may differ.
# -max-iter 8 bounds the refinement loop so the sweep stays a few minutes
# under the race detector (all modes use the same bound, so the comparison is
# unaffected). The portfolio leg is the determinism contract of the racing
# backend: lanes race on wall clock, never on the artifact.
go build -race -o "$tmpbin/goldmine_race" ./cmd/goldmine
for d in $("$tmpbin/goldmine" -list | while read -r name _; do echo "$name"; done); do
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -incremental=false -coi=false >"$tmpbin/fresh.txt"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 >"$tmpbin/incr.txt"
    "$tmpbin/goldmine_race" -design "$d" -max-iter 8 -portfolio 3 >"$tmpbin/port.txt"
    grep -v '^total:' "$tmpbin/fresh.txt" >"$tmpbin/fresh.art"
    grep -v '^total:' "$tmpbin/incr.txt" >"$tmpbin/incr.art"
    grep -v '^total:' "$tmpbin/port.txt" >"$tmpbin/port.art"
    if ! diff "$tmpbin/fresh.art" "$tmpbin/incr.art" >/dev/null; then
        echo "cross-check: FAILED ($d: pooled-session artifacts differ from fresh sessions)" >&2
        diff "$tmpbin/fresh.art" "$tmpbin/incr.art" | head >&2
        exit 1
    fi
    if ! diff "$tmpbin/incr.art" "$tmpbin/port.art" >/dev/null; then
        echo "cross-check: FAILED ($d: -portfolio 3 artifacts differ from single-solver)" >&2
        diff "$tmpbin/incr.art" "$tmpbin/port.art" | head >&2
        exit 1
    fi
    echo "cross-check: $d OK (pooled ≡ fresh ≡ portfolio)"
done

echo "== smoke: portfolio telemetry journal records the races =="
# A full portfolio mining run over the pipeline stage must actually race and
# its journal must validate with the sat.portfolio span present. The router
# sends cold checks solo and races a check only once its key is memoized as
# proved, so the raced checks here are the refinement loop's re-checks of
# already-proved candidates — pipeline's loop produces several of those.
# -j 1 is pinned because whether a re-check reaches the router depends on
# how the outputs are scheduled: the default -j follows the CPU count, and on
# a 2-CPU host it records no sat.portfolio span at all (nor does -j 4). One
# worker mines the outputs in a fixed order, so the same re-checks race on
# every host.
"$tmpbin/goldmine" -design pipeline -j 1 -portfolio 3 \
    -telemetry "$tmpbin/pf.jsonl" >/dev/null
"$tmpbin/telcheck" -require mc.check,sat.portfolio,sat.solve "$tmpbin/pf.jsonl"
echo "smoke: portfolio journal validates with sat.portfolio spans"

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

package stimgen

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/rtl"
)

func closureOpts(workers int) ClosureOptions {
	return ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 42, Workers: workers},
		SeedLanes:       2,
		SeedCycles:      8,
		MaxIterations:   4,
	}
}

// legacyBaseline is what the fixed-depth, one-query-per-hole closure loop
// that preceded the adaptive engine did on a fixture under closureOpts(2):
// its reach solves and its final branch/toggle/FSM covered counts. The loop
// has been deleted; these are its recorded numbers (identical at 1, 2 and 4
// workers).
type legacyBaseline struct {
	solves              int
	branch, toggle, fsm int
}

var legacyBaselines = map[string]legacyBaseline{
	"arbiter2": {solves: 46, branch: 2, toggle: 10, fsm: 0},
	"fsm":      {solves: 81, branch: 7, toggle: 10, fsm: 3},
}

func TestAdaptiveClosureIssuesFewerSolvesThanLegacy(t *testing.T) {
	// The whole point of the engine: equal-or-better coverage for strictly
	// less SAT work. Witness sharing and adaptive caps both cut solves.
	for _, src := range []string{arbiterSrc, fsmSrc} {
		d := mustElab(t, src)
		legacy, ok := legacyBaselines[d.Name]
		if !ok {
			t.Fatalf("%s: no recorded legacy baseline", d.Name)
		}
		adaptive, err := CloseCoverage(context.Background(), d, closureOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.ReachSolves >= legacy.solves {
			t.Errorf("%s: adaptive %d solves, legacy %d — no reduction",
				d.Name, adaptive.ReachSolves, legacy.solves)
		}
		af := adaptive.Final
		if af.Branch.Covered < legacy.branch || af.Toggle.Covered < legacy.toggle ||
			af.FSM.Covered < legacy.fsm {
			t.Errorf("%s: adaptive coverage worse: %s vs legacy branch=%d toggle=%d fsm=%d",
				d.Name, af, legacy.branch, legacy.toggle, legacy.fsm)
		}
	}
}

func TestAdaptiveClosureSharesWitnesses(t *testing.T) {
	// A near-empty seed leaves more than one wave of holes open, so later
	// waves can ride earlier witnesses.
	d := mustElab(t, arbiterSrc)
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 42, Workers: 2},
		SeedLanes:       1,
		SeedCycles:      2,
		MaxIterations:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Methods[MethodShared] == 0 {
		t.Errorf("no hole was covered by a sibling's witness: %v", res.Methods)
	}
	// Shared attempts never carry a stimulus; the accounting must hold.
	for _, at := range res.Attempts {
		if at.Method == MethodShared && (at.Stim != nil || at.Via == "") {
			t.Errorf("%s: shared attempt stim=%v via=%q", at.Hole.Key(), at.Stim, at.Via)
		}
	}
}

func TestAdaptiveClosurePromotesDeadHoles(t *testing.T) {
	// The arbiter's one-hot grant invariant makes several condition/branch
	// bins dead code; the engine must prove at least one and shrink the
	// universe rather than re-fuzzing it forever.
	d := mustElab(t, arbiterSrc)
	res, err := CloseCoverage(context.Background(), d, closureOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dead) == 0 || res.Methods[MethodDead] == 0 {
		t.Fatalf("no dead promotion: methods %v", res.Methods)
	}
	for _, dh := range res.Dead {
		if dh.K < 1 || dh.Depth < 1 || dh.Key == "" || dh.Design == "" {
			t.Errorf("malformed dead entry %+v", dh)
		}
	}
	// A dead hole must not be attempted again in later iterations.
	firstSeen := map[string]int{}
	for i, at := range res.Attempts {
		k := at.Hole.Key()
		if at.Method == MethodDead {
			firstSeen[k] = i
		} else if di, dead := firstSeen[k]; dead && i > di {
			t.Errorf("hole %s attempted (%s) after dead promotion", k, at.Method)
		}
	}
}

func TestDeadCorpusPersistsAcrossRuns(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	deadFile := filepath.Join(t.TempDir(), "dead.jsonl")
	opts := closureOpts(2)
	opts.DeadFile = deadFile

	first, err := CloseCoverage(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Dead) == 0 {
		t.Fatal("first run promoted nothing; persistence test is vacuous")
	}
	if first.DeadLoaded != 0 {
		t.Errorf("fresh corpus loaded %d dead holes", first.DeadLoaded)
	}

	second, err := CloseCoverage(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every hole proven dead in run 1 is excluded before any query in run 2:
	// no re-promotion, a recorded exclusion count, and fewer queries.
	if len(second.Dead) != 0 {
		t.Errorf("second run re-proved %d dead holes", len(second.Dead))
	}
	if second.DeadLoaded < len(first.Dead) {
		t.Errorf("second run excluded %d dead holes, first proved %d",
			second.DeadLoaded, len(first.Dead))
	}
	if second.ReachCalls >= first.ReachCalls {
		t.Errorf("dead exclusion did not reduce queries: %d -> %d",
			first.ReachCalls, second.ReachCalls)
	}
	// Suites and coverage are unchanged — dead holes never produced stimulus.
	if !reflect.DeepEqual(first.Suite, second.Suite) {
		t.Error("suites differ across reruns with a dead corpus")
	}
	if first.Final != second.Final {
		t.Errorf("final coverage differs: %s vs %s", first.Final, second.Final)
	}

	// The journal tolerates a torn tail (killed writer) and still excludes.
	f, err := os.OpenFile(deadFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"design":"x","key":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	third, err := CloseCoverage(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.DeadLoaded != second.DeadLoaded {
		t.Errorf("torn tail changed exclusions: %d vs %d", third.DeadLoaded, second.DeadLoaded)
	}

	// A bad line with anything after it is corruption, not a torn tail: both
	// readers refuse the journal and name the file and line.
	raw, err := os.ReadFile(deadFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deadFile, append([]byte(`{"design":"x","key":"tor`+"\n"), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	want := deadFile + ":1: corrupt"
	if _, err := CloseCoverage(context.Background(), d, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("CloseCoverage on a corrupt dead corpus: err=%v, want %q", err, want)
	}
	if _, err := LoadDeadHoles(deadFile, d); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadDeadHoles on a corrupt dead corpus: err=%v, want %q", err, want)
	}
}

func TestAdaptiveClosureDeterministicAcrossWorkers(t *testing.T) {
	checkClosureDeterministic(t, mustElab(t, fsmSrc), closureOpts)
}

// TestDirectedDeterministicAcrossWorkers runs closure on the arbiter behind
// a one-cycle seed, so nearly every hole goes to the directed engine, and
// requires each attempt's method, depth and stimulus to match positionally
// between -j1 and -j4.
func TestDirectedDeterministicAcrossWorkers(t *testing.T) {
	checkClosureDeterministic(t, mustElab(t, arbiterSrc), func(workers int) ClosureOptions {
		return ClosureOptions{
			DirectedOptions: DirectedOptions{Seed: 7, Workers: workers},
			SeedLanes:       1,
			SeedCycles:      1,
		}
	})
}

// checkClosureDeterministic runs closure on d with opts(1) and opts(4) and
// requires identical results: suite, reports, method counts, dead sets,
// query counters, and every attempt positionally (hole, method, depth,
// stimulus).
func checkClosureDeterministic(t *testing.T, d *rtl.Design, opts func(workers int) ClosureOptions) {
	t.Helper()
	run := func(workers int) *ClosureResult {
		res, err := CloseCoverage(context.Background(), d, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if len(r1.Attempts) == 0 {
		t.Fatalf("%s: closure made no directed attempts to compare", d.Name)
	}
	if len(r1.Attempts) != len(r4.Attempts) {
		t.Fatalf("%s: %d attempts at -j1, %d at -j4", d.Name, len(r1.Attempts), len(r4.Attempts))
	}
	for i, a1 := range r1.Attempts {
		a4 := r4.Attempts[i]
		if a1.Hole.Key() != a4.Hole.Key() || a1.Method != a4.Method || a1.Depth != a4.Depth {
			t.Errorf("%s attempt %d: -j1 %s %s@%d vs -j4 %s %s@%d", d.Name, i,
				a1.Hole.Key(), a1.Method, a1.Depth, a4.Hole.Key(), a4.Method, a4.Depth)
		}
		if !reflect.DeepEqual(a1.Stim, a4.Stim) {
			t.Errorf("%s attempt %d (%s): stimuli differ across worker counts", d.Name, i, a1.Hole.Key())
		}
	}
	if !reflect.DeepEqual(r1.Suite, r4.Suite) {
		t.Errorf("%s: suites differ between -j1 and -j4", d.Name)
	}
	if r1.Final != r4.Final {
		t.Errorf("%s: final reports differ: %s vs %s", d.Name, r1.Final, r4.Final)
	}
	if !reflect.DeepEqual(r1.Methods, r4.Methods) {
		t.Errorf("%s: method counts differ: %v vs %v", d.Name, r1.Methods, r4.Methods)
	}
	if !reflect.DeepEqual(r1.Dead, r4.Dead) {
		t.Errorf("%s: dead sets differ: %v vs %v", d.Name, r1.Dead, r4.Dead)
	}
	// The query counters are part of the determinism contract: solve counts
	// are per-hole formula properties, so the totals match under any -j.
	if r1.ReachCalls != r4.ReachCalls || r1.ReachSolves != r4.ReachSolves {
		t.Errorf("%s: query counters differ: %d/%d vs %d/%d", d.Name,
			r1.ReachCalls, r1.ReachSolves, r4.ReachCalls, r4.ReachSolves)
	}
}

func TestSequenceObligationClosesArcOutOfUnreachedState(t *testing.T) {
	// A one-cycle seed only ever sees state 0, so every FSM arc out of
	// state 1 or 2 is a sequence obligation (SourceUnreached). The engine
	// must close arcs like 1->2 — whose source state no stimulus has visited
	// — in one query (or via a sibling's witness), not skip them.
	d := mustElab(t, fsmSrc)
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 7},
		SeedLanes:       1,
		SeedCycles:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*HoleAttempt{}
	for _, at := range res.Attempts[:res.Iterations[0].Holes] {
		byKey[at.Hole.Key()] = at
	}
	// The real arc 1->2 must be closed even though state 1 was never seen.
	at := byKey["fsm:state:1->2"]
	if at == nil || !at.Hole.SourceUnreached {
		t.Fatalf("arc 1->2 not attempted as a sequence obligation: %+v", at)
	}
	switch at.Method {
	case MethodSAT, MethodFuzz, MethodShared:
	default:
		t.Errorf("sequence obligation 1->2: method %s", at.Method)
	}
	// The impossible arc 2->1 must be promoted to dead, shrinking the
	// universe instead of staying bounded-unreachable.
	if at := byKey["fsm:state:2->1"]; at == nil || at.Method != MethodDead {
		t.Errorf("impossible arc 2->1: %+v want dead", at)
	}
}

func TestCapForScalesWithStateBits(t *testing.T) {
	h := &holes.Hole{ConeStateBits: 0}
	if c := capFor(h, 40); c != 4 {
		t.Errorf("combinational cap %d want 4", c)
	}
	h.ConeStateBits = 3
	if c := capFor(h, 40); c != 10 {
		t.Errorf("3-state-bit cap %d want 10", c)
	}
	h.SourceUnreached = true
	if c := capFor(h, 40); c != 14 {
		t.Errorf("sequence-obligation cap %d want 14", c)
	}
	// Big cones start at half depth — one deferral doubling reaches full —
	// so dead holes can promote before the full ladder is paid.
	h.ConeStateBits = 40
	if c := capFor(h, 40); c != 20 {
		t.Errorf("cap %d not clamped to half MaxDepth", c)
	}
	if c := capFor(h, 20); c != 10 {
		t.Errorf("cap %d want half of MaxDepth 20", c)
	}
	// A shallow MaxDepth is never halved below the 4-frame floor.
	if c := capFor(h, 6); c != 6 {
		t.Errorf("cap %d want 6 (no halving below the floor)", c)
	}
}

func TestCompactionRepacksBudgetedSuite(t *testing.T) {
	// Under a tight cycle budget the gate parks witnesses it cannot afford;
	// the compaction pass must evict witnesses covering nothing unique and
	// readmit parked ones into the freed cycles — without losing a single
	// covered fact and without breaking -j determinism.
	for _, src := range []string{arbiterSrc, fsmSrc} {
		d := mustElab(t, src)
		run := func(workers int) *ClosureResult {
			res, err := CloseCoverage(context.Background(), d, ClosureOptions{
				DirectedOptions: DirectedOptions{Seed: 42, Workers: workers},
				SeedLanes:       1,
				SeedCycles:      4,
				MaxIterations:   4,
				TotalCycles:     16,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res := run(2)
		if res.CyclesUsed > 16 {
			t.Errorf("%s: budget overrun: %d cycles", d.Name, res.CyclesUsed)
		}
		if res.Evicted == 0 {
			t.Errorf("%s: compaction evicted nothing under a 16-cycle budget", d.Name)
		}
		// Replaying the compacted suite from scratch reproduces every metric
		// the collector reported: eviction may only remove redundancy.
		fresh := coverage.New(d)
		if err := fresh.RunSuite(res.Suite); err != nil {
			t.Fatal(err)
		}
		if got, want := fresh.Report(), res.Final; got != want {
			t.Errorf("%s: compacted suite replays to %+v, collector saw %+v", d.Name, got, want)
		}
		r1, r4 := run(1), run(4)
		if !reflect.DeepEqual(r1.Suite, r4.Suite) {
			t.Errorf("%s: compacted suites differ between -j1 and -j4", d.Name)
		}
		if r1.Evicted != r4.Evicted || r1.Readmitted != r4.Readmitted {
			t.Errorf("%s: compaction moves differ: %d/%d vs %d/%d",
				d.Name, r1.Evicted, r1.Readmitted, r4.Evicted, r4.Readmitted)
		}
	}
}

// TestFinalCyclesCountReturnedSuite: b12 at 512 cycles is a run whose
// compaction evicts witnesses; the final report must count the cycles of the
// suite returned, not also those of the evicted witnesses.
func TestFinalCyclesCountReturnedSuite(t *testing.T) {
	bm, err := designs.Get("b12")
	if err != nil {
		t.Fatal(err)
	}
	d, err := bm.Design()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 1, Workers: 2},
		TotalCycles:     512,
		FillRandom:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted == 0 {
		t.Fatal("b12 at 512 cycles evicted no witness; the check below proves nothing")
	}
	suite := 0
	for _, s := range res.Suite {
		suite += len(s)
	}
	if res.Final.Cycles != res.CyclesUsed || res.CyclesUsed != suite {
		t.Errorf("final report counts %d cycles, CyclesUsed %d, suite %d",
			res.Final.Cycles, res.CyclesUsed, suite)
	}
}

func TestAdaptiveClosureRetriesDeferredHoles(t *testing.T) {
	// A deferred hole's cap must grow across iterations (the satellite fix:
	// the old skip set froze fruitless holes forever). Observable effect:
	// any hole deferred in one iteration is re-attempted in a later one
	// unless closure ended first.
	d := mustElab(t, fsmSrc)
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 1},
		SeedLanes:       1,
		SeedCycles:      4,
		MaxIterations:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	deferredAt := map[string]int{}
	retried := 0
	for iterIdx, n := 0, 0; n < len(res.Attempts); iterIdx++ {
		if iterIdx >= len(res.Iterations) {
			break
		}
		for i := 0; i < res.Iterations[iterIdx].Holes; i, n = i+1, n+1 {
			at := res.Attempts[n]
			k := at.Hole.Key()
			if at.Method == MethodDeferred {
				deferredAt[k] = iterIdx
			} else if prev, ok := deferredAt[k]; ok && iterIdx > prev {
				retried++
			}
		}
	}
	// Not every run defers (small design), but if anything was deferred and
	// iterations remained, it must have been retried, not frozen.
	if len(deferredAt) > 0 && len(res.Iterations) > 1 && retried == 0 {
		lastIter := len(res.Iterations) - 1
		allLast := true
		for _, it := range deferredAt {
			if it != lastIter {
				allLast = false
			}
		}
		if !allLast {
			t.Errorf("deferred holes never retried: %v over %d iterations",
				deferredAt, len(res.Iterations))
		}
	}
}

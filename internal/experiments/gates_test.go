package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/corpus"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// TestMCPathsAgree: every way of running a check decides it identically. On
// the mined suite of every bundled design, a fresh Checker, one pooled
// Session, and a cold Session on a Checker that one untimed pass has warmed
// must agree on status, method, depth and the canonical counterexample. The
// SAT engines are forced, since they are the paths sessions change. The
// fourth path asks the reach queries of each check's violation obligation
// (see reachAgrees).
func TestMCPathsAgree(t *testing.T) {
	opts := mc.DefaultOptions()
	opts.MaxStateBits = 0
	checkAll := func(check func(*assertion.Assertion) (*mc.Result, error), suite []*assertion.Assertion) []*mc.Result {
		t.Helper()
		var res []*mc.Result
		for _, a := range suite {
			r, err := check(a)
			if err != nil {
				t.Fatal(err)
			}
			res = append(res, r)
		}
		return res
	}
	// cold checks the suite on a new Session of a Checker that has already
	// checked it once, the shape of a mining run re-checking its harvest.
	cold := func(d *rtl.Design, suite []*assertion.Assertion) []*mc.Result {
		c := mc.NewWithOptions(d, opts)
		checkAll(c.NewSession().Check, suite)
		return checkAll(c.NewSession().Check, suite)
	}
	for _, name := range designs.Names() {
		d, suite, err := MCAssertionSuite(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		fresh := checkAll(mc.NewWithOptions(d, opts).Check, suite)
		paths := map[string][]*mc.Result{
			"session": checkAll(mc.NewWithOptions(d, opts).NewSession().Check, suite),
			"cold":    cold(d, suite),
		}
		for path, res := range paths {
			for i, f := range fresh {
				o := res[i]
				if f.Status != o.Status || f.Method != o.Method || f.Depth != o.Depth || !reflect.DeepEqual(f.Ctx, o.Ctx) {
					t.Errorf("%s %s: check %d (%s) = %v/%v/%d, fresh = %v/%v/%d (ctx equal %v)",
						name, path, i, suite[i], o.Status, o.Method, o.Depth,
						f.Status, f.Method, f.Depth, reflect.DeepEqual(f.Ctx, o.Ctx))
				}
			}
		}
		s := mc.NewWithOptions(d, opts).NewSession()
		for i, f := range fresh {
			if msg := reachAgrees(s, d, opts, suite[i], f); msg != "" {
				t.Errorf("%s reach: check %d (%s): %s", name, i, suite[i], msg)
			}
		}
	}
}

// violation is the reach obligation "a is violated": every antecedent
// proposition holds and the consequent does not. It is built here from
// public rtl expressions, independently of the checker's own encoding.
func violation(d *rtl.Design, a *assertion.Assertion) mc.Obligation {
	prop := func(p assertion.Prop, holds bool) mc.ReachProp {
		sig := d.Signal(p.Signal)
		var lhs rtl.Expr = &rtl.Ref{Sig: sig}
		w := sig.Width
		if p.Bit >= 0 {
			if sig.Width > 1 {
				lhs = &rtl.Select{X: lhs, Bit: p.Bit}
			}
			w = 1
		}
		eq := &rtl.Binary{Op: rtl.OpEq, A: lhs, B: rtl.NewConst(p.Value, w), W: 1}
		return mc.ReachProp{Expr: eq, Value: holds, Offset: p.Offset}
	}
	ob := mc.Obligation{Name: a.String()}
	for _, p := range a.Antecedent {
		ob.Props = append(ob.Props, prop(p, true))
	}
	ob.Props = append(ob.Props, prop(a.Consequent, false))
	return ob
}

// reachAgrees asks s the reach queries of a's violation obligation and
// returns "" when they match the check result f: falsified ⇔ Reach finds
// the same stimulus at the same depth; k-induction(k) ⇔ ProveUnreachable
// proves the obligation dead with K = k; bmc-bounded ⇔ it stays bounded
// unreachable; a register-free proof (sat-comb) ⇔ Reach finds no witness.
func reachAgrees(s *mc.Session, d *rtl.Design, opts mc.Options, a *assertion.Assertion, f *mc.Result) string {
	ctx := context.Background()
	ob := violation(d, a)
	r, err := s.Reach(ctx, ob, opts.MaxBMCDepth, nil)
	if err != nil {
		return err.Error()
	}
	switch {
	case f.Status == mc.StatusFalsified:
		if r.Status != mc.ReachFound || r.Depth != f.Depth || !reflect.DeepEqual(r.Stim, f.Ctx) {
			return fmt.Sprintf("falsified at depth %d, reach = %v at depth %d (stimulus equal %v)",
				f.Depth, r.Status, r.Depth, reflect.DeepEqual(r.Stim, f.Ctx))
		}
		return ""
	case r.Status != mc.ReachUnreachable || (f.Method == "bmc-bounded" && r.Depth != f.Depth):
		return fmt.Sprintf("%v via %s at depth %d, reach = %v at depth %d", f.Status, f.Method, f.Depth, r.Status, r.Depth)
	case f.Method == "sat-comb":
		return ""
	}
	p, err := s.ProveUnreachable(ctx, ob, r.Depth, 0, opts.MaxInduction)
	if err != nil {
		return err.Error()
	}
	switch f.Method {
	case fmt.Sprintf("k-induction(k=%d)", p.K):
		if p.Status == mc.ReachDead {
			return ""
		}
	case "bmc-bounded":
		if p.Status == mc.ReachUnreachable {
			return ""
		}
	}
	return fmt.Sprintf("%v via %s, induction = %v with K=%d", f.Status, f.Method, p.Status, p.K)
}

// coverRow is one design's closure figures at 512 cycles, seed 1. legacy*
// are the deleted fixed-depth, one-query-per-hole loop's reach solves and
// open holes, recorded when both engines still ran side by side (reach
// solves repeat exactly for a given seed); open and dead pin the adaptive
// engine's open holes and proven-dead holes.
type coverRow struct{ legacySolves, legacyOpen, open, dead int }

// coverRows has a row for every bundled design.
var coverRows = map[string]coverRow{
	"arbiter2": {40, 2, 2, 2}, "arbiter4": {0, 0, 0, 0}, "b01": {0, 0, 0, 0},
	"b02": {0, 0, 0, 0}, "b03": {0, 0, 0, 0}, "b04": {0, 0, 0, 0},
	"b06": {268, 14, 14, 14}, "b09": {20, 1, 1, 1}, "b10": {136, 7, 7, 7},
	"b11": {0, 0, 0, 0}, "b12": {600, 13, 11, 11}, "b17": {878, 45, 45, 26},
	"b18": {156, 8, 8, 8}, "cex_small": {20, 1, 1, 1}, "decode": {44, 2, 2, 2},
	"fetch": {0, 0, 0, 0}, "pipeline": {89, 4, 4, 4}, "wb_stage": {0, 0, 0, 0},
}

// openHoles replays suite on a fresh collector and returns the keys of the
// holes left open.
func openHoles(t *testing.T, d *rtl.Design, suite []sim.Stimulus) map[string]bool {
	t.Helper()
	col := coverage.New(d)
	if err := col.RunSuiteCompiled(suite); err != nil {
		t.Fatal(err)
	}
	open := map[string]bool{}
	for _, h := range holes.FromCollector(col) {
		open[h.Key()] = true
	}
	return open
}

// coverClosure runs name's closure at 512 cycles, seed 1, 2 workers, and the
// random run it is compared against, checks the closure against the
// design's coverRows row, and returns it with the holes each run leaves
// open. It returns a nil result for a design without a row.
func coverClosure(t *testing.T, name string) (res *stimgen.ClosureResult, randomOpen, directedOpen map[string]bool) {
	t.Helper()
	const budget, seed = 512, 1
	want, ok := coverRows[name]
	if !ok {
		t.Errorf("%s: no closure row", name)
		return nil, nil, nil
	}
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	// Random starts from the same seed lanes as the directed run, then
	// fills the rest of the budget from the same generator.
	random := append(stimgen.RandomLanes(d, 4, 64, seed, 2),
		stimgen.Random(d, budget-4*64, seed+0x5eed, 2))
	res, err = stimgen.CloseCoverage(context.Background(), d, stimgen.ClosureOptions{
		DirectedOptions: stimgen.DirectedOptions{Seed: seed, Workers: 2},
		TotalCycles:     budget,
		FillRandom:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := suiteCycles(res.Suite); n > budget {
		t.Errorf("%s: directed suite is %d cycles, budget %d", name, n, budget)
	}
	randomOpen, directedOpen = openHoles(t, d, random), openHoles(t, d, res.Suite)
	if len(directedOpen) > len(randomOpen) {
		t.Errorf("%s: directed leaves %d holes open, random %d", name, len(directedOpen), len(randomOpen))
	}
	if len(randomOpen) > 0 && len(res.Attempts) == 0 {
		t.Errorf("%s: %d holes open after random, but no directed attempts", name, len(randomOpen))
	}
	if len(directedOpen) > want.legacyOpen {
		t.Errorf("%s: directed leaves %d holes open, legacy %d", name, len(directedOpen), want.legacyOpen)
	}
	if !(res.ReachSolves < want.legacySolves || res.ReachSolves == 0 && want.legacySolves == 0) {
		t.Errorf("%s: %d reach solves, legacy %d", name, res.ReachSolves, want.legacySolves)
	}
	if len(directedOpen) != want.open || len(res.Dead) != want.dead {
		t.Errorf("%s: %d open / %d dead, pinned %d / %d", name, len(directedOpen), len(res.Dead), want.open, want.dead)
	}
	return res, randomOpen, directedOpen
}

// TestCoverClosureGate: at an equal 512-cycle budget, adaptive directed
// closure leaves no more holes open than pure random and than the legacy
// loop, and issues strictly fewer reach solves than the legacy loop (or both
// issue none), on every bundled design.
func TestCoverClosureGate(t *testing.T) {
	wins, dead := 0, 0
	for _, name := range designs.Names() {
		res, randomOpen, directedOpen := coverClosure(t, name)
		if res == nil {
			continue
		}
		for k := range randomOpen {
			if !directedOpen[k] {
				wins++
				break
			}
		}
		dead += len(res.Dead)
	}
	if wins == 0 {
		t.Error("directed closes no hole random leaves open on any design")
	}
	t.Logf("%d designs with a strict directed win, %d dead holes", wins, dead)
}

// TestCoverBenchDesign: on decode, whose legacy baseline is pinned at 44
// reach solves and 2 open holes, closure passes the gate's checks, keeps
// per-hole accounting, and leaves strictly fewer holes open than random.
func TestCoverBenchDesign(t *testing.T) {
	if legacy := coverRows["decode"]; legacy.legacySolves != 44 || legacy.legacyOpen != 2 {
		t.Fatalf("frozen decode baseline = %d solves / %d open, want 44 / 2", legacy.legacySolves, legacy.legacyOpen)
	}
	res, randomOpen, directedOpen := coverClosure(t, "decode")
	if len(res.Iterations) == 0 || len(res.Attempts) == 0 || len(res.Methods) == 0 {
		t.Error("no per-hole accounting")
	}
	if len(directedOpen) >= len(randomOpen) {
		t.Errorf("directed leaves %d holes open on decode, random %d: no strict win", len(directedOpen), len(randomOpen))
	}
}

// TestFrozenLegacyCoversEveryDesign: the cover gate's legacy comparisons
// need a coverRows row for every bundled design, and no row for any other.
func TestFrozenLegacyCoversEveryDesign(t *testing.T) {
	names := designs.Names()
	if len(coverRows) != len(names) {
		t.Errorf("coverRows has %d rows for %d designs", len(coverRows), len(names))
	}
	for _, name := range names {
		if _, ok := coverRows[name]; !ok {
			t.Errorf("no closure row for %s", name)
		}
	}
}

// corpusRows pins, per design, the corpus entries after both mining runs and
// the monitors the reduction keeps. b04 (about 80 s) and b12, b17 and b18
// are left out to keep the test short; perfbench's reduce workload gates
// the last three at 100% retention.
var corpusRows = map[string]struct{ unique, reduced int }{
	"arbiter2": {34, 19}, "arbiter4": {1243, 207}, "b01": {76, 21},
	"b02": {38, 10}, "b03": {1720, 209}, "b06": {194, 84}, "b09": {90, 12},
	"b10": {460, 20}, "b11": {392, 249}, "cex_small": {17, 11},
	"decode": {488, 75}, "fetch": {2186, 234}, "pipeline": {666, 95},
	"wb_stage": {127, 63},
}

// TestCorpusReductionGate mines each design twice (directed seed at 16
// refinement iterations, a random seed over every output at 8), ingests both
// runs plus a replay of the first into one corpus, and reduces it: the
// reduced suite keeps at least 95% of the mutant kills and all coverage
// windows, and is strictly smaller than the corpus. Designs run in parallel:
// the shared verdict cache never changes what a run mines.
func TestCorpusReductionGate(t *testing.T) {
	for name, want := range corpusRows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := designs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			mr1, err := mineModule(b, seedOf(b), 16)
			if err != nil {
				t.Fatal(err)
			}
			var allOuts []string
			for _, sig := range mr1.Design.Outputs() {
				allOuts = append(allOuts, sig.Name)
			}
			mr2, err := mineModuleCfg(b, stimgen.Random(mr1.Design, 48, 7, 2), 8, allOuts, nil)
			if err != nil {
				t.Fatal(err)
			}
			crp := corpus.New()
			crp.IngestOutputs("run1", mr1.Design, mr1.Results)
			crp.IngestOutputs("run2", mr2.Design, mr2.Results)
			if st := crp.IngestOutputs("run1-replay", mr1.Design, mr1.Results); st.New != 0 {
				t.Errorf("replaying run 1 added %d entries", st.New)
			}
			red, err := corpus.Reduce(mr1.Design, crp, corpus.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if k, c := red.KillRetention(), red.CoverRetention(); k < 95 || c < 100 {
				t.Errorf("retention kills %.1f%% coverage %.1f%%", k, c)
			}
			if len(red.Selected) >= red.Total {
				t.Errorf("reduced suite has %d of %d monitors", len(red.Selected), red.Total)
			}
			if crp.Len() != want.unique || len(red.Selected) != want.reduced {
				t.Errorf("%d entries, %d selected; pinned %d, %d",
					crp.Len(), len(red.Selected), want.unique, want.reduced)
			}
		})
	}
}

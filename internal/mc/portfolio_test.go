package mc

import (
	"context"
	"reflect"
	"testing"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
)

func portfolioOptions(n int) Options {
	o := satOnlyOptions()
	o.Portfolio = n
	return o
}

// benchDesign loads a bundled benchmark design by name.
func benchDesign(t *testing.T, name string) *rtl.Design {
	t.Helper()
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// arbiter4Suite mixes provable, falsifiable, and bounded assertions over the
// four-port arbiter (rotating priority pointer: deeper state than arbiter2).
func arbiter4Suite() []*assertion.Assertion {
	return []*assertion.Assertion{
		// Falsified: req0 alone does not guarantee an immediate grant (the
		// pointer may favor another port).
		{Output: "gnt0", Antecedent: []assertion.Prop{prop("req0", 0, 1)}, Consequent: prop("gnt0", 1, 1), Window: 2},
		// Proved: reset clears the grants.
		{Output: "gnt0", Antecedent: []assertion.Prop{prop("rst", 0, 1)}, Consequent: prop("gnt0", 1, 0), Window: 2},
		// Proved (inductive): grants are one-hot by construction.
		{Output: "gnt1", Antecedent: []assertion.Prop{prop("gnt0", 0, 1)}, Consequent: prop("gnt1", 0, 0), Window: 1},
		// Falsified: gnt1 is reachable.
		{Output: "gnt1", Antecedent: nil, Consequent: prop("gnt1", 1, 0), Window: 2},
		// Falsified: pointer does not pin port 2 forever.
		{Output: "gnt2", Antecedent: []assertion.Prop{prop("req2", 0, 1), prop("req0", 0, 0), prop("req1", 0, 0)}, Consequent: prop("gnt2", 1, 1), Window: 2},
	}
}

// fetchSuite covers the fetch pipeline stage (8-bit pc datapath: the widest
// cones in the bundled set, the SAT-dominated class the portfolio targets).
func fetchSuite() []*assertion.Assertion {
	return []*assertion.Assertion{
		// Proved (combinational consequence of the valid gating).
		{Output: "valid", Antecedent: []assertion.Prop{prop("valid", 0, 1)}, Consequent: prop("stall_in", 0, 0), Window: 1},
		// Proved: a mispredict squashes the in-flight fetch.
		{Output: "valid", Antecedent: []assertion.Prop{prop("branch_mispredict", 0, 1)}, Consequent: prop("valid", 1, 0), Window: 2},
		// Falsified: an icache hit does not guarantee valid next cycle (a
		// same-cycle mispredict or stall can mask it).
		{Output: "valid", Antecedent: []assertion.Prop{prop("icache_rdvl_i", 0, 1), prop("stall_in", 0, 0), prop("branch_mispredict", 0, 0)}, Consequent: prop("valid", 1, 1), Window: 2},
		// Falsified: valid is reachable.
		{Output: "valid", Antecedent: nil, Consequent: prop("valid", 1, 0), Window: 2},
	}
}

// TestPortfolioMatchesSingleSolver is the determinism contract of the racing
// backend: for every assertion, a portfolio Session must return the identical
// status, method, depth, and byte-identical canonical counterexample as the
// fresh single-solver session — for any portfolio width, on every design.
func TestPortfolioMatchesSingleSolver(t *testing.T) {
	cases := []struct {
		design string
		src    string
		suite  []*assertion.Assertion
		// wantRaces: the design has checks that stay predicted-hard with proved
		// outcomes, so the second pass must race. arbiter2 is small enough that
		// its cost bucket retires below the hardness threshold after the first
		// pass — never racing it is the router working as intended.
		wantRaces bool
	}{
		{design: "arbiter2(local)", src: arbiterSrc, suite: arbiterSuite()},
		{design: "arbiter4", suite: arbiter4Suite(), wantRaces: true},
		{design: "fetch", suite: fetchSuite(), wantRaces: true},
	}
	for _, tc := range cases {
		var d *rtl.Design
		if tc.src != "" {
			d = mustDesign(t, tc.src)
		} else {
			d = benchDesign(t, tc.design)
		}
		fresh := NewWithOptions(d, satOnlyOptions())
		var want []*Result
		for _, a := range tc.suite {
			r, err := fresh.Check(a)
			if err != nil {
				t.Fatalf("%s fresh: %v", tc.design, err)
			}
			want = append(want, r)
		}
		for _, n := range []int{2, 3, 4} {
			// Two passes over the suite: the first runs cold (the router only
			// races on positive evidence, so it mostly stays solo while the
			// outcome model fills in), the second re-checks every property with
			// the per-key proved memo hot, so proved checks race.
			sess := NewWithOptions(d, portfolioOptions(n)).NewSession()
			for pass := 0; pass < 2; pass++ {
				for i, a := range tc.suite {
					got, err := sess.Check(a)
					if err != nil {
						t.Fatalf("%s portfolio=%d: %v", tc.design, n, err)
					}
					w := want[i]
					if got.Status != w.Status || got.Method != w.Method || got.Depth != w.Depth {
						t.Errorf("%s portfolio=%d pass %d assertion %d: got (%v,%s,%d) want (%v,%s,%d)",
							tc.design, n, pass, i, got.Status, got.Method, got.Depth, w.Status, w.Method, w.Depth)
					}
					if !reflect.DeepEqual(got.Ctx, w.Ctx) {
						t.Errorf("%s portfolio=%d pass %d assertion %d: counterexamples differ\nportfolio: %v\nsingle:    %v",
							tc.design, n, pass, i, got.Ctx, w.Ctx)
					}
					if got.Status == StatusFalsified {
						verifyCtx(t, d, tc.suite[i], got.Ctx)
					}
				}
			}
			if tc.wantRaces && sess.Races == 0 {
				t.Errorf("%s portfolio=%d: no checks raced (proved re-checks should race)", tc.design, n)
			}
		}
	}
}

// TestPortfolioSessionRepeatChecks re-checks the same batch through one
// portfolio session twice: the second pass reuses persistent race states (and
// runs concurrent export/import against warm clause pools under -race), and
// must still agree with itself.
func TestPortfolioSessionRepeatChecks(t *testing.T) {
	d := benchDesign(t, "arbiter4")
	suite := arbiter4Suite()
	sess := NewWithOptions(d, portfolioOptions(4)).NewSession()
	var first []*Result
	for _, a := range suite {
		r, err := sess.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, r)
	}
	for i, a := range suite {
		r, err := sess.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		w := first[i]
		if r.Status != w.Status || r.Method != w.Method || r.Depth != w.Depth || !reflect.DeepEqual(r.Ctx, w.Ctx) {
			t.Errorf("assertion %d: warm re-check diverged: (%v,%s,%d) vs (%v,%s,%d)",
				i, r.Status, r.Method, r.Depth, w.Status, w.Method, w.Depth)
		}
	}
}

// TestPortfolioCancellationMidRace cancels the caller's context while races
// are (potentially) in flight. The contract: cancellation degrades the
// verdict (never an error from CheckCtx), and the session remains usable —
// the next uncancelled check returns the exact single-solver result even
// though the previous race was torn down mid-ladder.
func TestPortfolioCancellationMidRace(t *testing.T) {
	d := benchDesign(t, "fetch")
	suite := fetchSuite()
	fresh := NewWithOptions(d, satOnlyOptions())
	sess := NewWithOptions(d, portfolioOptions(4)).NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	r, err := sess.CheckCtx(ctx, suite[0])
	if err != nil {
		t.Fatalf("cancelled check returned error: %v", err)
	}
	if r.Status == StatusUnknown || r.Degraded {
		if r.Cause == nil {
			t.Errorf("degraded cancelled check carries no cause: %+v", r)
		}
	}

	for i, a := range suite {
		want, err := fresh.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Method != want.Method || got.Depth != want.Depth || !reflect.DeepEqual(got.Ctx, want.Ctx) {
			t.Errorf("post-cancel assertion %d: got (%v,%s,%d) want (%v,%s,%d)",
				i, got.Status, got.Method, got.Depth, want.Status, want.Method, want.Depth)
		}
	}
}

// TestPortfolioLanePanicQuarantine drives a lane goroutine over a broken
// member directly: the panic must be recovered inside the lane, surface as an
// evPanic event, and quarantine only that member.
func TestPortfolioLanePanicQuarantine(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	sess := NewWithOptions(d, portfolioOptions(2)).NewSession()
	a := arbiterSuite()[0]

	broken := &raceMember{} // nil unroller: first encode step panics
	ev := make(chan raceEvent, 4)
	b := sess.c.newBudget(context.Background())
	sess.runBMCLane(broken, laneBudget(b, context.Background()), a, 1, 4, ev)
	e := <-ev
	if e.kind != evPanic {
		t.Fatalf("broken lane posted %v, want evPanic", e.kind)
	}
	if e.err == nil {
		t.Error("evPanic without error")
	}
	if !broken.dead {
		t.Error("panicking member not quarantined")
	}

	// A quarantined member in a live set must not stop the race from
	// producing correct (identical) verdicts on the survivors.
	bmcSet, _ := sess.raceSets()
	bmcSet.members[0].dead = true
	fresh := NewWithOptions(d, satOnlyOptions())
	want, err := fresh.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Depth != want.Depth || !reflect.DeepEqual(got.Ctx, want.Ctx) {
		t.Errorf("race with quarantined member: got (%v,%d) want (%v,%d)", got.Status, got.Depth, want.Status, want.Depth)
	}
}

// TestPortfolioAllDeadFallsBackSolo: when a whole lane set is quarantined the
// session must route checks to the solo incremental ladder (identical
// results, no race counted).
func TestPortfolioAllDeadFallsBackSolo(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	sess := NewWithOptions(d, portfolioOptions(2)).NewSession()
	bmcSet, _ := sess.raceSets()
	for _, m := range bmcSet.members {
		m.dead = true
	}
	fresh := NewWithOptions(d, satOnlyOptions())
	for i, a := range arbiterSuite() {
		want, err := fresh.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Method != want.Method || got.Depth != want.Depth || !reflect.DeepEqual(got.Ctx, want.Ctx) {
			t.Errorf("solo fallback assertion %d: got (%v,%s,%d) want (%v,%s,%d)",
				i, got.Status, got.Method, got.Depth, want.Status, want.Method, want.Depth)
		}
	}
	if sess.Races != 0 {
		t.Errorf("Races = %d with an all-dead BMC set; want 0", sess.Races)
	}
}

// TestPredictHardColdStartAndLearning: unseen cone shapes are optimistically
// hard (they race until measured); three cheap observations retire the bucket
// to the easy path; expensive observations keep it hard.
func TestPredictHardColdStartAndLearning(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := NewWithOptions(d, satOnlyOptions())
	a := arbiterSuite()[0]

	if _, hard := c.PredictHard(a); !hard {
		t.Fatal("cold-start prediction should be hard")
	}
	for i := 0; i < difficultyMinSamples; i++ {
		c.noteCheckCost(a, 10, false, false)
	}
	if score, hard := c.PredictHard(a); hard {
		t.Fatalf("three cheap samples should retire the bucket (score %d)", score)
	}
	for i := 0; i < 10; i++ {
		c.noteCheckCost(a, 10*hardWorkThreshold, false, false)
	}
	if _, hard := c.PredictHard(a); !hard {
		t.Fatal("expensive history should predict hard again")
	}
}

// TestPredictRaceWinOutcomeRouting: the race router follows the outcome
// history — only proved properties are worth racing (the induction lane can
// win those), falsified or bounded ones stay on the solo ladder, and a bucket
// where racing has measured slower than solo stops racing.
func TestPredictRaceWinOutcomeRouting(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := NewWithOptions(d, satOnlyOptions())
	suite := arbiterSuite()
	aF, aP := suite[0], suite[2] // same cone bucket, different keys
	other := suite[3]

	if c.predictRaceWin(aF) {
		t.Fatal("cold start should stay solo (no evidence racing can win)")
	}
	c.noteCheckCost(aF, 100, false, false)
	if c.predictRaceWin(aF) {
		t.Fatal("a property that did not prove last time should not race")
	}
	// The bucket has no proved majority yet, so an unseen key stays solo too.
	if c.predictRaceWin(aP) {
		t.Fatal("unseen key in a bucket with no proved majority should stay solo")
	}
	// Two proved outcomes flip the bucket majority: the proved property races
	// on its per-key memo, and unseen keys race on the bucket majority.
	c.noteCheckCost(aP, 100, true, false)
	c.noteCheckCost(aP, 100, true, false)
	if !c.predictRaceWin(aP) {
		t.Fatal("a property that proved last time should race")
	}
	if !c.predictRaceWin(other) {
		t.Fatal("unseen key in a proved-majority bucket should race")
	}
	// Racing measured much slower than solo on this bucket: unseen keys stop
	// racing, but the per-key memo still wins for the proved property.
	c.noteCheckCost(other, 100000, true, true)
	delete(c.diff.lastProved, other.CanonicalKey())
	if c.predictRaceWin(other) {
		t.Fatal("bucket where racing measured slower than solo should stay solo")
	}
	if !c.predictRaceWin(aP) {
		t.Fatal("per-key proved memo should outrank the bucket cost comparison")
	}
}

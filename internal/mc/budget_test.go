package mc

import (
	"context"
	"errors"
	"testing"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/telemetry"
)

// rank orders verdict strength for the degradation ladder: shrinking a budget
// may only move a verdict down the ladder, never up, and never across the
// true/false divide.
func rank(s Status) int {
	switch s {
	case StatusProved:
		return 3
	case StatusBounded:
		return 2
	case StatusUnknown:
		return 1
	default: // StatusFalsified sits on its own axis
		return 0
	}
}

// budgets is a strictly decreasing work-budget ladder; 0 means unlimited and
// anchors the top rung.
var budgets = []int64{0, 1 << 30, 200000, 50000, 10000, 2000, 400, 64, 8, 1}

func checkWithWork(t *testing.T, src string, a *assertion.Assertion, forceSAT bool, work int64) *Result {
	t.Helper()
	d := mustDesign(t, src)
	opts := DefaultOptions()
	if forceSAT {
		opts.MaxStateBits = 0
	}
	opts.MaxWork = work
	c := NewWithOptions(d, opts)
	res, err := c.Check(a)
	if err != nil {
		t.Fatalf("Check with work budget %d returned hard error: %v", work, err)
	}
	return res
}

// TestDegradationLadderTrueAssertion: a k-induction-proved assertion must
// degrade monotonically proved -> bounded -> unknown as the deterministic
// work budget shrinks, and must never be reported falsified.
func TestDegradationLadderTrueAssertion(t *testing.T) {
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("rst", 0, 0), prop("req0", 0, 1), prop("req1", 0, 0)},
		Consequent: prop("gnt0", 1, 1),
	}
	prev := -1
	for _, w := range budgets {
		res := checkWithWork(t, arbiterSrc, a, true, w)
		if res.Status == StatusFalsified {
			t.Fatalf("budget %d flipped a true assertion to falsified", w)
		}
		r := rank(res.Status)
		if prev >= 0 && r > prev {
			t.Fatalf("budget %d strengthened the verdict: rank %d after %d (%v via %s)",
				w, r, prev, res.Status, res.Method)
		}
		prev = r
		if res.Status != StatusProved {
			if res.Cause == nil {
				t.Fatalf("budget %d: weakened verdict %v lacks a Cause", w, res.Status)
			}
			if !errors.Is(res.Cause, ErrBudgetExceeded) {
				t.Fatalf("budget %d: Cause = %v, want ErrBudgetExceeded", w, res.Cause)
			}
			if !res.Degraded {
				t.Fatalf("budget %d: weakened verdict %v not marked Degraded", w, res.Status)
			}
		}
	}
	// Sanity: the ladder actually exercised both ends.
	top := checkWithWork(t, arbiterSrc, a, true, 0)
	bottom := checkWithWork(t, arbiterSrc, a, true, 1)
	if top.Status != StatusProved {
		t.Fatalf("unlimited budget: want proved, got %v", top.Status)
	}
	if bottom.Status != StatusUnknown {
		t.Fatalf("1-unit budget: want unknown, got %v", bottom.Status)
	}
}

// TestDegradationLadderFalseAssertion: a falsifiable assertion may weaken to
// bounded/unknown under budget pressure but must never be claimed proved, and
// any counterexample returned must be a real one (full model).
func TestDegradationLadderFalseAssertion(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 1)},
		Consequent: prop("gnt0", 1, 1),
	}
	prevFalsified := false
	for i := len(budgets) - 1; i >= 0; i-- { // ascend: once falsified, stays falsified
		w := budgets[i]
		res := checkWithWork(t, arbiterSrc, a, true, w)
		if res.Status == StatusProved {
			t.Fatalf("budget %d proved a false assertion", w)
		}
		if res.Status == StatusFalsified {
			verifyCtx(t, d, a, res.Ctx)
			prevFalsified = true
		} else if prevFalsified && w != 0 && i < len(budgets)-1 {
			// Larger budget than one that falsified must also falsify
			// (work budgets are deterministic).
			t.Fatalf("budget %d lost a falsification found under a smaller budget", w)
		}
	}
	if !prevFalsified {
		t.Fatal("no budget on the ladder falsified the assertion")
	}
}

// TestExplicitEngineBudgetDegrades: a design eligible for the explicit engine
// still yields a usable (degraded) answer when the work pool dies mid-BFS.
func TestExplicitEngineBudgetDegrades(t *testing.T) {
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("rst", 0, 0), prop("req0", 0, 1), prop("req1", 0, 0)},
		Consequent: prop("gnt0", 1, 1),
	}
	full := checkWithWork(t, arbiterSrc, a, false, 0)
	if full.Status != StatusProved || full.Method != "explicit" {
		t.Fatalf("unbudgeted explicit check: got %v via %s", full.Status, full.Method)
	}
	tiny := checkWithWork(t, arbiterSrc, a, false, 2)
	if tiny.Status == StatusFalsified || tiny.Status == StatusProved {
		t.Fatalf("2-unit budget cannot support a decisive verdict, got %v via %s", tiny.Status, tiny.Method)
	}
	if tiny.Cause == nil || !errors.Is(tiny.Cause, ErrBudgetExceeded) {
		t.Fatalf("degraded explicit check: Cause = %v", tiny.Cause)
	}
}

// TestCheckCancelled: a cancelled context yields StatusUnknown with
// ErrCanceled instead of an error or a hang, and the mc.unknown counter
// records it.
func TestCheckCancelled(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	opts := DefaultOptions()
	opts.MaxStateBits = 0
	c := NewWithOptions(d, opts)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(telemetry.New(reg, nil))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &assertion.Assertion{Output: "gnt0", Consequent: prop("gnt0", 1, 0)}
	res, err := c.CheckCtx(ctx, a)
	if err != nil {
		t.Fatalf("cancelled check returned error: %v", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("cancelled check: want unknown, got %v", res.Status)
	}
	if !errors.Is(res.Cause, ErrCanceled) {
		t.Fatalf("cancelled check: Cause = %v, want ErrCanceled", res.Cause)
	}
	if u := reg.Counter("mc.unknown").Value(); u != 1 {
		t.Fatalf("mc.unknown = %d, want 1", u)
	}
}

// TestCancelStopsInFlightCheck: cancelling the context mid-check stops an
// in-flight SAT search within 100ms (the acceptance bound), returning
// StatusUnknown with ErrCanceled.
func TestCancelStopsInFlightCheck(t *testing.T) {
	src := `
module bigctr(input clk, rst, en, output reg [9:0] q, output top);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (en) q <= q + 1;
  assign top = (q == 10'd1023);
endmodule`
	d := mustDesign(t, src)
	opts := DefaultOptions()
	opts.MaxStateBits = 0
	opts.MaxBMCDepth = 1 << 20 // deep unrolling keeps the search in flight
	c := NewWithOptions(d, opts)
	a := &assertion.Assertion{Output: "top", Consequent: prop("top", 0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := c.CheckCtx(ctx, a)
	stopLag := time.Since(start) - 20*time.Millisecond
	if err != nil {
		t.Fatal(err)
	}
	if stopLag > 100*time.Millisecond {
		t.Fatalf("cancellation took %v to stop the search, want <= 100ms", stopLag)
	}
	if res.Status == StatusProved || res.Status == StatusFalsified {
		t.Fatalf("cancelled check produced decisive %v", res.Status)
	}
	if !errors.Is(res.Cause, ErrCanceled) {
		t.Fatalf("Cause = %v, want ErrCanceled", res.Cause)
	}
}

// TestCheckTimeoutReturnsPromptly: a short wall-clock budget bounds the check
// and the verdict carries the budget cause.
func TestCheckTimeoutReturnsPromptly(t *testing.T) {
	// A 10-bit counter pushes the SAT engine through deep BMC unrolling.
	src := `
module bigctr(input clk, rst, en, output reg [9:0] q, output top);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (en) q <= q + 1;
  assign top = (q == 10'd1023);
endmodule`
	d := mustDesign(t, src)
	opts := DefaultOptions()
	opts.MaxStateBits = 0
	opts.MaxBMCDepth = 1 << 20 // far beyond any feasible unrolling
	opts.CheckTimeout = 30 * time.Millisecond
	c := NewWithOptions(d, opts)
	a := &assertion.Assertion{Output: "top", Consequent: prop("top", 0, 0)}
	start := time.Now()
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("check overran its 30ms budget grossly: %v", el)
	}
	if res.Status == StatusProved || res.Status == StatusFalsified {
		t.Fatalf("timeout check produced decisive %v", res.Status)
	}
	if res.Cause == nil {
		t.Fatalf("timeout check lacks Cause (status %v via %s)", res.Status, res.Method)
	}
}

// TestExplicitWorkBudgetPerLane pins the explicit engine's work accounting
// at unit granularity. The engine simulates 64 enumerated items per step but
// charges one unit per item up to and including the first violation, so a
// MaxWork pool runs dry on exactly the same unit as a one-item-at-a-time
// walk. The want values were recorded with that walk: budgets around the
// first violation (v = window sim 70 on arbiterSrc after a 24-unit BFS, and
// v = 4097 on arbiter4 after a 256-unit BFS), the 1024-unit clock poll that
// sees an exactly drained pool, and the 2-unit mid-BFS cut of
// TestExplicitEngineBudgetDegrades.
func TestExplicitWorkBudgetPerLane(t *testing.T) {
	arb2 := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 1), prop("rst", 0, 0), prop("req1", 1, 1)},
		Consequent: prop("gnt0", 2, 0),
	}
	midBFS := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("rst", 0, 0), prop("req0", 0, 1), prop("req1", 0, 0)},
		Consequent: prop("gnt0", 1, 1),
	}
	arb4 := &assertion.Assertion{
		Output:     "gnt1",
		Antecedent: []assertion.Prop{prop("req0", 0, 0), prop("req0", 1, 1), prop("req1", 1, 1)},
		Consequent: prop("gnt1", 2, 0),
	}
	bench, err := designs.Get("arbiter4")
	if err != nil {
		t.Fatal(err)
	}
	d4, err := bench.Design()
	if err != nil {
		t.Fatal(err)
	}
	d2 := mustDesign(t, arbiterSrc)
	cases := []struct {
		d      *rtl.Design
		a      *assertion.Assertion
		work   int64
		status Status
		method string
		budget bool // Cause is ErrBudgetExceeded (nil otherwise)
		sims   int64
	}{
		{d2, arb2, 24 + 68, StatusUnknown, "none", true, 69},
		{d2, arb2, 24 + 69, StatusUnknown, "none", true, 70},
		{d2, arb2, 24 + 70, StatusFalsified, "explicit", false, 70},
		{d2, arb2, 24 + 71, StatusFalsified, "explicit", false, 70},
		{d2, arb2, 24 + 72, StatusFalsified, "explicit", false, 70},
		{d2, midBFS, 2, StatusUnknown, "none", true, 0},
		{d4, arb4, 1023, StatusUnknown, "none", true, 768},
		{d4, arb4, 1024, StatusUnknown, "none", true, 768},
		{d4, arb4, 1025, StatusUnknown, "none", true, 770},
		{d4, arb4, 256 + 4095, StatusUnknown, "none", true, 4096},
		{d4, arb4, 256 + 4096, StatusUnknown, "none", true, 4097},
		{d4, arb4, 256 + 4097, StatusFalsified, "explicit", false, 4097},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.MaxWork = tc.work
		c := NewWithOptions(tc.d, opts)
		reg := telemetry.NewRegistry()
		c.SetTelemetry(telemetry.New(reg, nil))
		res, err := c.Check(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		sims := reg.Counter("mc.explicit_window_sims").Value()
		budget := errors.Is(res.Cause, ErrBudgetExceeded)
		if res.Status != tc.status || res.Method != tc.method || budget != tc.budget ||
			(res.Cause == nil) == tc.budget || sims != tc.sims {
			t.Errorf("%s MaxWork=%d: got %v via %s (cause %v) after %d window sims, want %v via %s (budget cause %v) after %d",
				tc.d.Name, tc.work, res.Status, res.Method, res.Cause, sims, tc.status, tc.method, tc.budget, tc.sims)
		}
		if res.Status == StatusFalsified {
			verifyCtx(t, tc.d, tc.a, res.Ctx)
		}
	}
}

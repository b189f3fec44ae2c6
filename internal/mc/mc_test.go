package mc

import (
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

const arbiterSrc = `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 0; gnt1 <= 0; end
    else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule`

func mustDesign(t *testing.T, src string) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func prop(sig string, off int, val uint64) assertion.Prop {
	return assertion.P(sig, off, val, 1)
}

// verifyCtx simulates the counterexample and confirms the assertion is
// violated in the window ending at the final cycle.
func verifyCtx(t *testing.T, d *rtl.Design, a *assertion.Assertion, ctx sim.Stimulus) {
	t.Helper()
	trace, err := sim.Simulate(d, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t0 := len(ctx) - (a.Consequent.Offset + 1)
	if t0 < 0 {
		t.Fatalf("ctx too short: %d cycles for offset %d", len(ctx), a.Consequent.Offset)
	}
	value := func(p assertion.Prop) uint64 {
		v, err := trace.Value(t0+p.Offset, p.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bit >= 0 {
			v = v >> uint(p.Bit) & 1
		}
		return v
	}
	for _, p := range a.Antecedent {
		if v := value(p); v != p.Value {
			t.Fatalf("ctx does not satisfy antecedent %s@%d: got %d want %d", p, p.Offset, v, p.Value)
		}
	}
	if cv := value(a.Consequent); cv == a.Consequent.Value {
		t.Fatalf("ctx does not violate consequent: %s=%d", a.Consequent, cv)
	}
}

func TestExplicitProveTrueAssertion(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// rst=0 && req0 && !req1 ==> X gnt0 (always grants port 0).
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("rst", 0, 0), prop("req0", 0, 1), prop("req1", 0, 0)},
		Consequent: prop("gnt0", 1, 1),
	}
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved {
		t.Fatalf("want proved, got %v (%s)", res.Status, res.Method)
	}
	if res.Method != "explicit" {
		t.Errorf("expected explicit engine, got %s", res.Method)
	}
}

func TestExplicitFalsify(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// req0 ==> X gnt0 is false (rst, or round-robin handoff).
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 1)},
		Consequent: prop("gnt0", 1, 1),
	}
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFalsified {
		t.Fatalf("want falsified, got %v", res.Status)
	}
	verifyCtx(t, d, a, res.Ctx)
}

func TestExplicitMutualExclusion(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// gnt0 ==> !gnt1 in the same cycle (grants are mutually exclusive).
	a := &assertion.Assertion{
		Output:     "gnt1",
		Antecedent: []assertion.Prop{prop("gnt0", 0, 1)},
		Consequent: prop("gnt1", 0, 0),
	}
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved {
		t.Fatalf("mutual exclusion should be proved, got %v", res.Status)
	}
}

func TestExplicitAlwaysZeroFalsified(t *testing.T) {
	// The zero-pattern seed starts from "output always 0" (Section 7.2).
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	a := &assertion.Assertion{
		Output:     "gnt0",
		Consequent: prop("gnt0", 1, 0),
	}
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFalsified {
		t.Fatalf("want falsified, got %v", res.Status)
	}
	verifyCtx(t, d, a, res.Ctx)
}

func TestPaperWindowAssertions(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// A2 (paper): !req0 && X(!req0) ==> XX(!gnt0) — true (needs rst-free
	// interpretation? No: with rst asserted gnt0 also goes 0, so it holds).
	a2 := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 0), prop("req0", 1, 0)},
		Consequent: prop("gnt0", 2, 0),
		Window:     1,
	}
	res, err := c.Check(a2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved {
		t.Fatalf("A2 should hold, got %v", res.Status)
	}
	// A3 (paper): !req0 && X(req0) ==> XX(gnt0) — false in our model because
	// reset can intervene (paper's design has rst folded away); the checker
	// must produce a counterexample with rst=1 in the final window.
	a3 := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 0), prop("req0", 1, 1)},
		Consequent: prop("gnt0", 2, 1),
		Window:     1,
	}
	res3, err := c.Check(a3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Status != StatusFalsified {
		t.Fatalf("A3 with reset should be falsified, got %v", res3.Status)
	}
	verifyCtx(t, d, a3, res3.Ctx)
	// The rst-qualified version is true.
	a3r := &assertion.Assertion{
		Output: "gnt0",
		Antecedent: []assertion.Prop{
			prop("req0", 0, 0), prop("req0", 1, 1), prop("rst", 1, 0),
		},
		Consequent: prop("gnt0", 2, 1),
		Window:     1,
	}
	res3r, err := c.Check(a3r)
	if err != nil {
		t.Fatal(err)
	}
	if res3r.Status != StatusProved {
		t.Fatalf("rst-qualified A3 should hold, got %v", res3r.Status)
	}
}

func TestSATEngineMatchesExplicit(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	// Force the SAT path by disallowing explicit state.
	opts := DefaultOptions()
	opts.MaxStateBits = 0
	c := NewWithOptions(d, opts)

	aTrue := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("rst", 0, 0), prop("req0", 0, 1), prop("req1", 0, 0)},
		Consequent: prop("gnt0", 1, 1),
	}
	res, err := c.Check(aTrue)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved {
		t.Fatalf("SAT engine: want proved, got %v via %s", res.Status, res.Method)
	}

	aFalse := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("req0", 0, 1)},
		Consequent: prop("gnt0", 1, 1),
	}
	resF, err := c.Check(aFalse)
	if err != nil {
		t.Fatal(err)
	}
	if resF.Status != StatusFalsified {
		t.Fatalf("SAT engine: want falsified, got %v", resF.Status)
	}
	verifyCtx(t, d, aFalse, resF.Ctx)
}

func TestCombinationalChecker(t *testing.T) {
	src := `
module mux(input s, a, b, output y);
  assign y = s ? a : b;
endmodule`
	d := mustDesign(t, src)
	c := New(d)
	// s && a ==> y: true.
	aT := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{prop("s", 0, 1), prop("a", 0, 1)},
		Consequent: prop("y", 0, 1),
	}
	res, err := c.Check(aT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved || res.Method != "sat-comb" {
		t.Fatalf("got %v via %s", res.Status, res.Method)
	}
	// a ==> y: false (s may select b).
	aF := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{prop("a", 0, 1)},
		Consequent: prop("y", 0, 1),
	}
	resF, err := c.Check(aF)
	if err != nil {
		t.Fatal(err)
	}
	if resF.Status != StatusFalsified {
		t.Fatalf("got %v", resF.Status)
	}
	verifyCtx(t, d, aF, resF.Ctx)
}

func TestReachableStates(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	n, err := c.ReachableStates()
	if err != nil {
		t.Fatal(err)
	}
	// (gnt0,gnt1) can never be (1,1): 3 reachable states.
	if n != 3 {
		t.Errorf("reachable states %d, want 3", n)
	}
	list, err := c.Reachable()
	if err != nil || len(list) != 3 {
		t.Errorf("reachable list %v err %v", list, err)
	}
}

func TestUnknownSignalError(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	a := &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{prop("bogus", 0, 1)},
		Consequent: prop("gnt0", 1, 0),
	}
	if _, err := c.Check(a); err == nil {
		t.Error("unknown signal should error")
	}
}

func TestCheckerStats(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	a := &assertion.Assertion{Output: "gnt0", Consequent: prop("gnt0", 1, 0)}
	if _, err := c.Check(a); err != nil {
		t.Fatal(err)
	}
	if c.Checks != 1 || c.CtxFound != 1 {
		t.Errorf("stats: checks=%d ctx=%d", c.Checks, c.CtxFound)
	}
}

func TestSATCounterInduction(t *testing.T) {
	// A design whose proof needs induction: saturating counter never exceeds 5.
	src := `
module satctr(input clk, rst, en, output reg [2:0] q, output top);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (en & (q < 3'd5)) q <= q + 1;
  assign top = (q > 3'd5);
endmodule`
	d := mustDesign(t, src)
	opts := DefaultOptions()
	opts.MaxStateBits = 0 // force SAT engine
	c := NewWithOptions(d, opts)
	// top is never 1: true ==> !top (same cycle, offset 0 on comb output).
	a := &assertion.Assertion{Output: "top", Consequent: prop("top", 0, 0)}
	res, err := c.Check(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProved {
		t.Fatalf("saturating bound should be proved (k-induction), got %v via %s", res.Status, res.Method)
	}
}

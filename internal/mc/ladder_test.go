package mc

import (
	"testing"

	"goldmine/internal/assertion"
)

// satCounterSrc counts from reset up to 7 and stays there; y marks the
// count 3, first reached in cycle 3 (a 4-cycle run). Induction proves "y
// never rises" at k=4, because 0 has no predecessor — but only a BMC base
// of 4 frames shows that y stays low in cycles 0..3.
const satCounterSrc = `
module satcnt(input clk, a, output y);
  reg [2:0] cnt;
  always @(posedge clk)
    if (cnt != 3'd7) cnt <= cnt + 1;
  assign y = (cnt == 3'd3);
endmodule`

// TestInductionCappedByBMCBase: the induction step is sound only for k up to
// the windows the BMC base case checked (k <= MaxBMCDepth - window + 1). An
// uncapped ladder proves a == 0 -> y == 0 at k=4 on a 2- or 3-frame base,
// although a 4-cycle run violates it. No BMC depth may yield a proof; from
// depth 4 on the check falsifies with a replaying 4-cycle counterexample,
// on a fresh Checker and on a warm pooled Session alike.
func TestInductionCappedByBMCBase(t *testing.T) {
	d := mustDesign(t, satCounterSrc)
	a := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{prop("a", 0, 0)},
		Consequent: prop("y", 0, 0),
	}
	for depth := 1; depth <= 6; depth++ {
		opts := satOnlyOptions()
		opts.MaxBMCDepth = depth
		opts.MaxInduction = 12
		c := NewWithOptions(d, opts)
		sess := c.NewSession()
		for _, path := range []struct {
			name  string
			check func(*assertion.Assertion) (*Result, error)
		}{{"checker", c.Check}, {"session", sess.Check}, {"warm session", sess.Check}} {
			res, err := path.check(a)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case res.Status == StatusProved:
				t.Errorf("depth %d %s: unsound proof via %s", depth, path.name, res.Method)
			case depth < 4 && (res.Status != StatusBounded || res.Method != "bmc-bounded" || res.Depth != depth):
				t.Errorf("depth %d %s: got %v via %s at %d, want bmc-bounded at %d",
					depth, path.name, res.Status, res.Method, res.Depth, depth)
			case depth >= 4 && (res.Status != StatusFalsified || res.Depth != 4 || len(res.Ctx) != 4):
				t.Errorf("depth %d %s: got %v via %s at %d (%d-cycle ctx), want a 4-cycle falsification",
					depth, path.name, res.Status, res.Method, res.Depth, len(res.Ctx))
			case depth >= 4:
				verifyCtx(t, d, a, res.Ctx)
			}
		}
	}
}

// TestWindowedCombinationalAssertion: on a register-free design every window
// is the same formula, so an assertion whose consequent sits one cycle after
// the antecedent is decided by one 2-frame rung — proved via sat-comb, or
// falsified with a 2-cycle counterexample that replays.
func TestWindowedCombinationalAssertion(t *testing.T) {
	d := mustDesign(t, `
module andg(input a, b, output y);
  assign y = a & b;
endmodule`)
	valid := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{prop("a", 1, 1), prop("b", 1, 1)},
		Consequent: prop("y", 1, 1),
		Window:     2,
	}
	invalid := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{prop("a", 0, 1)},
		Consequent: prop("y", 1, 1),
		Window:     2,
	}
	for name, opts := range map[string]Options{"default": DefaultOptions(), "sat-only": satOnlyOptions()} {
		c := NewWithOptions(d, opts)
		res, err := c.Check(valid)
		if err != nil {
			t.Fatalf("%s: valid: %v", name, err)
		}
		if res.Status != StatusProved || res.Method != "sat-comb" {
			t.Errorf("%s: valid: got %v via %s, want proved via sat-comb", name, res.Status, res.Method)
		}
		res, err = c.Check(invalid)
		if err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		if res.Status != StatusFalsified || res.Method != "sat-comb" || len(res.Ctx) != 2 {
			t.Fatalf("%s: invalid: got %v via %s (%d-cycle ctx), want a 2-cycle sat-comb falsification",
				name, res.Status, res.Method, len(res.Ctx))
		}
		verifyCtx(t, d, invalid, res.Ctx)
	}
}

package cnf

import (
	"math/rand"
	"testing"

	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
)

// checkEquivalence unrolls the design T frames, pins the inputs to the given
// stimulus via assumptions, solves, and compares every signal at every frame
// against the simulator.
func checkEquivalence(t *testing.T, src string, stim sim.Stimulus) {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Simulate(d, stim)
	if err != nil {
		t.Fatal(err)
	}

	s := sat.New()
	u := NewUnroller(s, d)
	for i := 0; i < len(stim); i++ {
		u.AddFrame()
	}
	u.InitZero()

	var assumps []sat.Lit
	for ti, iv := range stim {
		for _, in := range d.Inputs() {
			vec, err := u.SignalVec(ti, in)
			if err != nil {
				t.Fatal(err)
			}
			val := iv[in.Name]
			for bit, lit := range vec {
				if (val>>uint(bit))&1 == 1 {
					assumps = append(assumps, lit)
				} else {
					assumps = append(assumps, lit.Neg())
				}
			}
		}
	}
	// Force encoding of every signal before solving so the model covers them.
	for ti := 0; ti < len(stim); ti++ {
		for _, sig := range trace.Signals {
			if _, err := u.SignalVec(ti, sig); err != nil {
				t.Fatalf("encode %s@%d: %v", sig.Name, ti, err)
			}
		}
	}
	if st := s.Solve(assumps...); st != sat.Sat {
		t.Fatalf("pinned-input instance must be SAT, got %v (%s)", st, s)
	}
	for ti := 0; ti < len(stim); ti++ {
		for _, sig := range trace.Signals {
			want, _ := trace.Value(ti, sig.Name)
			got, err := u.SignalModel(ti, sig)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s@%d: SAT=%d sim=%d", sig.Name, ti, got, want)
			}
		}
	}
}

func randomStim(d *rtl.Design, cycles int, seed int64) sim.Stimulus {
	rng := rand.New(rand.NewSource(seed))
	var stim sim.Stimulus
	for c := 0; c < cycles; c++ {
		iv := sim.InputVec{}
		for _, in := range d.Inputs() {
			iv[in.Name] = rng.Uint64() & rtl.Mask(in.Width)
		}
		stim = append(stim, iv)
	}
	return stim
}

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

func TestArbiterEquivalence(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	for seed := int64(0); seed < 5; seed++ {
		checkEquivalence(t, arbiterSrc, randomStim(d, 6, seed))
	}
}

func TestArithmeticEquivalence(t *testing.T) {
	src := `
module alu(input [3:0] a, b, input [1:0] op, output reg [3:0] y, output flag);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a ^ b;
    endcase
  end
  assign flag = (a == b) | (a < b);
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 8; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

func TestMultiplyEquivalence(t *testing.T) {
	src := `
module mul(input [3:0] a, b, output [7:0] p);
  assign p = {4'b0, a} * {4'b0, b};
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 10; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

func TestShiftEquivalence(t *testing.T) {
	src := `
module sh(input [7:0] a, input [2:0] n, output [7:0] l, r);
  assign l = a << n;
  assign r = a >> n;
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 10; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

// TestWideShiftAmount pins shift amounts whose set bits reach 1<<30 and
// above: every such amount moves all bits out, so both shifts must be 0, as
// rtl.Eval computes them.
func TestWideShiftAmount(t *testing.T) {
	src := `
module sh(input [7:0] a, input [31:0] b, output [7:0] l, r);
  assign l = a << b;
  assign r = a >> b;
endmodule`
	for _, b := range []uint64{1 << 30, 1 << 31, 1<<31 | 1, 1<<29 | 3, 8, 3} {
		checkEquivalence(t, src, sim.Stimulus{{"a": 0x5a, "b": b}})
	}
}

func TestCounterEquivalence(t *testing.T) {
	src := `
module ctr(input clk, rst, en, output reg [2:0] q, output wrap);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (en) q <= q + 1;
  assign wrap = (q == 3'd7);
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 5; seed++ {
		checkEquivalence(t, src, randomStim(d, 10, seed))
	}
}

func TestComparisonsEquivalence(t *testing.T) {
	src := `
module cmp(input [3:0] a, b, output lt, le, gt, ge, eq, ne);
  assign lt = a < b;
  assign le = a <= b;
  assign gt = a > b;
  assign ge = a >= b;
  assign eq = a == b;
  assign ne = a != b;
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 12; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

func TestReductionsAndConcatEquivalence(t *testing.T) {
	src := `
module red(input [4:0] a, output ra, ro, rx, output [9:0] cc);
  assign ra = &a;
  assign ro = |a;
  assign rx = ^a;
  assign cc = {a, ~a};
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 10; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

func TestDynamicIndexEquivalence(t *testing.T) {
	src := `
module idx(input [7:0] a, input [2:0] i, output y);
  assign y = a[i];
endmodule`
	d, _ := rtl.ElaborateSource(src)
	for seed := int64(0); seed < 10; seed++ {
		checkEquivalence(t, src, randomStim(d, 1, seed))
	}
}

func TestUnsatWhenOutputPinnedWrong(t *testing.T) {
	// Pin y != ~a: must be UNSAT.
	src := `module m(input a, output y); assign y = ~a; endmodule`
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	av, _ := u.SignalVec(0, d.MustSignal("a"))
	yv, _ := u.SignalVec(0, d.MustSignal("y"))
	// Assume a=1 and y=1 simultaneously (y must be 0).
	if st := s.Solve(av[0], yv[0]); st != sat.Unsat {
		t.Fatalf("contradictory pin should be UNSAT, got %v", st)
	}
	if st := s.Solve(av[0], yv[0].Neg()); st != sat.Sat {
		t.Fatalf("consistent pin should be SAT, got %v", st)
	}
}

func TestEncodeExprDirect(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	u.InitZero()
	// gnt0 == 0 at frame 0 (reset state): expression must be forced true.
	gnt0 := d.MustSignal("gnt0")
	e := &rtl.Binary{Op: rtl.OpEq, A: &rtl.Ref{Sig: gnt0}, B: rtl.NewConst(0, 1), W: 1}
	vec, err := u.EncodeExpr(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(vec[0].Neg()); st != sat.Unsat {
		t.Fatalf("gnt0 must be 0 in reset frame, got %v", st)
	}
}

func TestFrameErrors(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	u := NewUnroller(sat.New(), d)
	if _, err := u.SignalVec(0, d.MustSignal("gnt0")); err == nil {
		t.Error("frame 0 not materialized: want error")
	}
	if _, err := u.EncodeExpr(rtl.NewConst(1, 1), 2); err == nil {
		t.Error("frame 2 not materialized: want error")
	}
}

func TestInputModelExtraction(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	u.InitZero()
	req0, _ := u.SignalVec(0, d.MustSignal("req0"))
	if st := s.Solve(req0[0]); st != sat.Sat {
		t.Fatal(st)
	}
	iv := u.InputModel(0)
	if iv["req0"] != 1 {
		t.Errorf("input model req0=%d want 1", iv["req0"])
	}
	if _, ok := iv["rst"]; ok {
		t.Error("input model lists rst, which no encoded cone references")
	}
}

package mc

import (
	"fmt"
	"testing"

	"goldmine/internal/sim"
)

func TestEquivCombinationalEqual(t *testing.T) {
	// Two implementations of XOR.
	a := mustDesign(t, `module m(input p, q, output y); assign y = p ^ q; endmodule`)
	b := mustDesign(t, `module m(input p, q, output y); assign y = (p & ~q) | (~p & q); endmodule`)
	res, err := Equivalent(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivEqual {
		t.Fatalf("XOR implementations: %v", res.Status)
	}
}

func TestEquivCombinationalDifferent(t *testing.T) {
	a := mustDesign(t, `module m(input p, q, output y); assign y = p ^ q; endmodule`)
	b := mustDesign(t, `module m(input p, q, output y); assign y = p | q; endmodule`)
	res, err := Equivalent(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivDifferent {
		t.Fatalf("xor vs or: %v", res.Status)
	}
	// The ctx must actually distinguish them: p=q=1.
	ta, _ := sim.Simulate(a, res.Ctx)
	tb, _ := sim.Simulate(b, res.Ctx)
	va, _ := ta.Value(len(res.Ctx)-1, "y")
	vb, _ := tb.Value(len(res.Ctx)-1, "y")
	if va == vb {
		t.Fatalf("ctx does not distinguish: both give %d", va)
	}
}

func TestEquivSequentialEqual(t *testing.T) {
	// The arbiter vs a restructured but equivalent arbiter.
	a := mustDesign(t, arbiterSrc)
	b := mustDesign(t, `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk) begin
    if (rst) begin
      gnt0 <= 0; gnt1 <= 0;
    end else begin
      gnt0 <= req0 & (~gnt0 | ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
  end
endmodule`)
	res, err := Equivalent(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivEqual {
		t.Fatalf("restructured arbiter should be equivalent: %v (out %s)", res.Status, res.Output)
	}
}

func TestEquivSequentialDifferent(t *testing.T) {
	// A faulty variant (gnt1 tied low) must be distinguished, with a working
	// distinguishing sequence.
	a := mustDesign(t, arbiterSrc)
	b := mustDesign(t, `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 0; gnt1 <= 0; end
    else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= 0;
    end
endmodule`)
	res, err := Equivalent(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivDifferent {
		t.Fatalf("stuck-at mutant should differ: %v", res.Status)
	}
	ta, _ := sim.Simulate(a, res.Ctx)
	tb, _ := sim.Simulate(b, res.Ctx)
	last := len(res.Ctx) - 1
	va, _ := ta.Value(last, res.Output)
	vb, _ := tb.Value(last, res.Output)
	if va == vb {
		t.Fatalf("distinguishing sequence fails: %s=%d both", res.Output, va)
	}
}

func TestEquivBoundedPath(t *testing.T) {
	// Force the bounded miter by zeroing the explicit limits.
	a := mustDesign(t, arbiterSrc)
	opts := DefaultOptions()
	opts.MaxStateBits = 0
	opts.MaxBMCDepth = 6
	res, err := Equivalent(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivBounded {
		t.Fatalf("self-equivalence through bounded miter: %v", res.Status)
	}
	// And a faulty variant still differs through the bounded path.
	b := mustDesign(t, `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 1; gnt1 <= 0; end
    else begin
      gnt0 <= 1;
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule`)
	res2, err := Equivalent(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != EquivDifferent {
		t.Fatalf("mutant through bounded miter: %v", res2.Status)
	}
}

func TestEquivInterfaceMismatch(t *testing.T) {
	a := mustDesign(t, `module m(input p, output y); assign y = p; endmodule`)
	b := mustDesign(t, `module m(input p, q, output y); assign y = p & q; endmodule`)
	if _, err := Equivalent(a, b, DefaultOptions()); err == nil {
		t.Error("interface mismatch should error")
	}
	c := mustDesign(t, `module m(input [1:0] p, output y); assign y = p[0]; endmodule`)
	if _, err := Equivalent(a, c, DefaultOptions()); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestEquivStatusString(t *testing.T) {
	for _, s := range []EquivStatus{EquivEqual, EquivDifferent, EquivBounded} {
		if s.String() == "" {
			t.Error("empty status")
		}
	}
}

// TestEquivReorderedPorts: inputs pair up by name, not declaration order, on
// all three paths. Each row's b declares a's ports in another order; equal
// rows must not differ, and every distinguishing sequence reported for a
// different row must make the named output differ on the interpreter.
func TestEquivReorderedPorts(t *testing.T) {
	const comb = `module m(input [1:0] x, input y, output q); assign q = %s; endmodule`
	const combR = `module m(input y, input [1:0] x, output q); assign q = %s; endmodule`
	const seq = `module m(input clk, input [1:0] x, input y, output reg q, output reg r);
  always @(posedge clk) begin q <= %s; r <= q ^ y; end
endmodule`
	const seqR = `module m(input clk, input y, input [1:0] x, output reg q, output reg r);
  always @(posedge clk) begin q <= %s; r <= q ^ y; end
endmodule`
	same, other := "x[1] & ~y ^ x[0]", "y & ~x[1] ^ x[0]"
	bounded := DefaultOptions()
	bounded.MaxStateBits = 0
	bounded.MaxBMCDepth = 4
	cases := []struct {
		name   string
		a, b   string
		opts   Options
		status EquivStatus
	}{
		{"miter equal", fmt.Sprintf(comb, same), fmt.Sprintf(combR, same), DefaultOptions(), EquivEqual},
		{"miter different", fmt.Sprintf(comb, same), fmt.Sprintf(combR, other), DefaultOptions(), EquivDifferent},
		{"explicit equal", fmt.Sprintf(seq, same), fmt.Sprintf(seqR, same), DefaultOptions(), EquivEqual},
		{"explicit different", fmt.Sprintf(seq, same), fmt.Sprintf(seqR, other), DefaultOptions(), EquivDifferent},
		{"bounded equal", fmt.Sprintf(seq, same), fmt.Sprintf(seqR, same), bounded, EquivBounded},
		{"bounded different", fmt.Sprintf(seq, same), fmt.Sprintf(seqR, other), bounded, EquivDifferent},
	}
	for _, tc := range cases {
		a, b := mustDesign(t, tc.a), mustDesign(t, tc.b)
		res, err := Equivalent(a, b, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != tc.status {
			t.Errorf("%s: %v (output %s after %d cycles), want %v", tc.name, res.Status, res.Output, len(res.Ctx), tc.status)
			continue
		}
		if res.Status != EquivDifferent {
			continue
		}
		ta, err := sim.Simulate(a, res.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := sim.Simulate(b, res.Ctx)
		if err != nil {
			t.Fatal(err)
		}
		last := len(res.Ctx) - 1
		va, _ := ta.Value(last, res.Output)
		vb, _ := tb.Value(last, res.Output)
		if va == vb {
			t.Errorf("%s: distinguishing sequence %v leaves %s=%d on both", tc.name, res.Ctx, res.Output, va)
		}
	}
}

// TestMiterWitnessLexMin: the SAT miter's distinguishing input is the
// lexicographically smallest (inputs by name, bits LSB first) of all inputs
// under which the reported output takes the same pair of values, so it is a
// property of the two designs, not of the solver's search. The products
// make the solver learn before it finds a model, so a raw model would not
// be the minimum.
func TestMiterWitnessLexMin(t *testing.T) {
	for _, pair := range [][2]string{
		{"(p + q) > 6'd40", "(p ^ q) > 6'd40"},
		{"p * q == 6'd35", "1'b0"},
		{"p * q == 6'd17 || p * q == 6'd45", "p * q == 6'd45"},
		{"(p * q) ^ (q * q) == 6'd12", "1'b0"},
	} {
		checkMiterLexMin(t, pair[0], pair[1])
	}
}

func checkMiterLexMin(t *testing.T, fa, fb string) {
	t.Helper()
	src := "module m(input [5:0] p, input [5:0] q, output y); assign y = %s; endmodule"
	a := mustDesign(t, fmt.Sprintf(src, fa))
	b := mustDesign(t, fmt.Sprintf(src, fb))
	res, err := Equivalent(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != EquivDifferent || len(res.Ctx) != 1 {
		t.Fatalf("%s vs %s: %v after %d cycles", fa, fb, res.Status, len(res.Ctx))
	}
	outs := func(iv sim.InputVec) (uint64, uint64) {
		ta, errA := sim.Simulate(a, sim.Stimulus{iv})
		tb, errB := sim.Simulate(b, sim.Stimulus{iv})
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		ya, _ := ta.Value(0, "y")
		yb, _ := tb.Value(0, "y")
		return ya, yb
	}
	key := func(iv sim.InputVec) string { // p bits then q bits, LSB first
		var k []byte
		for _, name := range []string{"p", "q"} {
			for bit := 0; bit < 6; bit++ {
				k = append(k, '0'+byte(iv[name]>>uint(bit)&1))
			}
		}
		return string(k)
	}
	wa, wb := outs(res.Ctx[0])
	if wa == wb {
		t.Fatalf("%s vs %s: witness %v does not distinguish the designs", fa, fb, res.Ctx[0])
	}
	want := ""
	for p := uint64(0); p < 64; p++ {
		for q := uint64(0); q < 64; q++ {
			iv := sim.InputVec{"p": p, "q": q}
			if ya, yb := outs(iv); ya == wa && yb == wb && (want == "" || key(iv) < want) {
				want = key(iv)
			}
		}
	}
	if got := key(res.Ctx[0]); got != want {
		t.Errorf("%s vs %s: witness %v has key %s, the lexicographic minimum is %s", fa, fb, res.Ctx[0], got, want)
	}
}

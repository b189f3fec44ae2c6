package rtl

import (
	"strings"
	"testing"
)

func expectErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := ElaborateSource(src)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("want error containing %q, got %v", want, err)
	}
}

func TestElaborateRejections(t *testing.T) {
	expectErr(t, `module m(inout a, output y); assign y = a; endmodule`, "inout")
	expectErr(t, `module m(input [64:0] a, output y); assign y = a[0]; endmodule`, "wider than 64")
	expectErr(t, `
module m(input c1, c2, d, output reg q1, q2);
  always @(posedge c1) q1 <= d;
  always @(posedge c2) q2 <= d;
endmodule`, "second clock")
	expectErr(t, `
module m(input clk, a, output reg y);
  always @(posedge clk or posedge a) y <= a;
endmodule`, "multiple edge signals")
	expectErr(t, `
module m(input clk, a, output y);
  reg a;
  always @(posedge clk) a <= 1;
  assign y = a;
endmodule`, "") // duplicate decl of input a
	expectErr(t, `module m(input a, output y); assign y = a[3]; endmodule`, "out of bounds")
	expectErr(t, `module m(input [3:0] a, output [1:0] y); assign y = a[0:1]; endmodule`, "out of bounds")
	expectErr(t, `module m(input a, output y); assign y = {70{a}}; endmodule`, "wider than 64")
	expectErr(t, `module m(input [63:0] a, output y); assign y = {a, a} == 0; endmodule`, "wider than 64")
	expectErr(t, `module m(input a, output y); assign y = ghost; endmodule`, "undeclared")
	expectErr(t, `module m(input a, output y, z); assign y = a; endmodule`, "undriven")
	expectErr(t, `
module m(input a, b, output reg y);
  always @(*) case (a)
    1'b0: y = b;
    default: y = 0;
    default: y = 1;
  endcase
endmodule`, "multiple default")
	expectErr(t, `module m(input a, input [1:0] i, output [3:0] y);
	  assign y[i] = a;
	endmodule`, "dynamic bit-select")
	expectErr(t, `
module m(input clk, d, output reg q);
  always @(posedge clk) clk <= d;
endmodule`, "")
	expectErr(t, `
module m(input a, output reg y);
  always @(*) q = a;
endmodule`, "undeclared")
}

func TestProceduralDrivesInputRejected(t *testing.T) {
	expectErr(t, `
module m(input clk, a, output reg y);
  always @(posedge clk) begin
    y <= a;
  end
  always @(*) a = y;
endmodule`, "")
}

func TestMaskEdges(t *testing.T) {
	if Mask(64) != ^uint64(0) {
		t.Error("Mask(64)")
	}
	if Mask(1) != 1 || Mask(8) != 255 {
		t.Error("Mask small")
	}
}

func TestEvalShiftOverflow(t *testing.T) {
	d := elaborate(t, `module m(input [5:0] n, output [7:0] y, z);
	  wire [7:0] base;
	  assign base = 8'hFF;
	  assign y = base << n;
	  assign z = base >> n;
	endmodule`)
	env := MapEnv{d.MustSignal("n"): 63}
	order, _ := d.CombOrder()
	for _, s := range order {
		env[s] = Eval(d.Comb[s], env)
	}
	if env[d.MustSignal("y")] != 0 || env[d.MustSignal("z")] != 0 {
		t.Errorf("shift by 63: y=%d z=%d want 0,0", env[d.MustSignal("y")], env[d.MustSignal("z")])
	}
}

func TestStringCoversAllNodes(t *testing.T) {
	d := elaborate(t, `module m(input [3:0] a, b, input s, output [3:0] y);
	  assign y = s ? (a + b) : {2'b01, a[3:2]};
	endmodule`)
	out := String(d.Comb[d.MustSignal("y")])
	for _, want := range []string{"?", "+", "{", "["} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q: %s", want, out)
		}
	}
	// Unary and comparison rendering.
	d2 := elaborate(t, `module m2(input [3:0] a, output y);
	  assign y = !(&a) && (a >= 4'd2);
	endmodule`)
	out2 := String(d2.Comb[d2.MustSignal("y")])
	for _, want := range []string{"!", "&&", ">="} {
		if !strings.Contains(out2, want) {
			t.Errorf("String missing %q: %s", want, out2)
		}
	}
}

func TestRebind(t *testing.T) {
	d := elaborate(t, arbiter2Src)
	// Rebuild the maps as mutate does and rebind.
	nd := &Design{
		Name:    d.Name,
		Signals: d.Signals,
		Clock:   d.Clock,
		Comb:    map[*Signal]Expr{},
		Next:    map[*Signal]Expr{},
		Cover:   d.Cover,
	}
	for s, e := range d.Comb {
		nd.Comb[s] = e
	}
	for s, e := range d.Next {
		nd.Next[s] = e
	}
	if err := Rebind(nd); err != nil {
		t.Fatal(err)
	}
	if nd.Signal("gnt0") == nil {
		t.Error("rebound design lost signal index")
	}
	// Rebind must catch invalid designs too.
	delete(nd.Next, nd.MustSignal("gnt0"))
	if err := Rebind(nd); err == nil {
		t.Error("rebind of register without next-state should fail")
	}
	// A reordered signal list breaks ID = position, which every ID-indexed
	// table relies on.
	swapped := &Design{Name: d.Name, Signals: append([]*Signal(nil), d.Signals...),
		Clock: d.Clock, Comb: d.Comb, Next: d.Next, Cover: d.Cover}
	swapped.Signals[0], swapped.Signals[1] = swapped.Signals[1], swapped.Signals[0]
	if err := Rebind(swapped); err == nil || !strings.Contains(err.Error(), "ID") {
		t.Errorf("rebind of reordered signals: err = %v, want an ID error", err)
	}
	// An expression reading another elaboration's signal would index this
	// design's tables with a foreign ID.
	other := elaborate(t, arbiter2Src)
	nd.Next[nd.MustSignal("gnt0")] = &Ref{Sig: other.MustSignal("req0")}
	if err := Rebind(nd); err == nil || !strings.Contains(err.Error(), "not a signal of the design") {
		t.Errorf("rebind of a foreign read: err = %v, want a foreign-signal error", err)
	}
}

func TestSignalStringer(t *testing.T) {
	d := elaborate(t, arbiter2Src)
	s := d.MustSignal("gnt0").String()
	if !strings.Contains(s, "gnt0") || !strings.Contains(s, "output") {
		t.Errorf("signal string %q", s)
	}
	kinds := []SigKind{SigInput, SigOutput, SigWire, SigReg}
	for _, k := range kinds {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestMustSignalPanics(t *testing.T) {
	d := elaborate(t, arbiter2Src)
	defer func() {
		if recover() == nil {
			t.Error("MustSignal should panic on unknown name")
		}
	}()
	d.MustSignal("nosuch")
}

func TestPointStringAndKinds(t *testing.T) {
	d := elaborate(t, arbiter2Src)
	for _, p := range d.Cover.Points {
		if p.String() == "" {
			t.Fatal("empty point description")
		}
	}
	for _, k := range []PointKind{PointLine, PointBranch, PointCondition, PointExpression, PointMinterm} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

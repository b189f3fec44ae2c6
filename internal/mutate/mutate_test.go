package mutate

import (
	"context"

	"testing"

	"reflect"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/monitor"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
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

func TestApplyStuckAtOutput(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	md, err := Apply(d, Fault{Signal: "gnt0", StuckAt1: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Simulate(md, sim.Stimulus{{"rst": 1}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	// From cycle 1 on the register is stuck at 1 despite reset.
	if v, _ := tr.Value(2, "gnt0"); v != 1 {
		t.Errorf("stuck-at-1 gnt0 = %d", v)
	}
	// Original design unchanged.
	tro, _ := sim.Simulate(d, sim.Stimulus{{"rst": 1}, {}, {}})
	if v, _ := tro.Value(2, "gnt0"); v != 0 {
		t.Errorf("original design mutated: gnt0 = %d", v)
	}
}

func TestApplyStuckAtInput(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	md, err := Apply(d, Fault{Signal: "req0", StuckAt1: false})
	if err != nil {
		t.Fatal(err)
	}
	// With req0 stuck at 0, gnt0 can never rise.
	tr, _ := sim.Simulate(md, sim.Stimulus{{"rst": 1}, {"req0": 1}, {"req0": 1}, {"req0": 1}})
	for c := 0; c < tr.Cycles(); c++ {
		if v, _ := tr.Value(c, "gnt0"); v != 0 {
			t.Fatalf("cycle %d: gnt0=%d with req0 stuck at 0", c, v)
		}
	}
}

func TestApplyUnknownSignal(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	if _, err := Apply(d, Fault{Signal: "nosuch"}); err == nil {
		t.Error("unknown signal should error")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Signal: "x", StuckAt1: true}
	if f.String() != "x stuck-at-1" {
		t.Errorf("got %q", f.String())
	}
	f0 := Fault{Signal: "y"}
	if f0.String() != "y stuck-at-0" {
		t.Errorf("got %q", f0.String())
	}
}

func TestCampaignDetectsFaults(t *testing.T) {
	// Mine assertions on the correct arbiter, then inject faults (Section
	// 7.4): every fault must be detected by at least one assertion.
	d := mustDesign(t, arbiterSrc)
	e, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MineAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	asserts := res.Assertions()
	if len(asserts) == 0 {
		t.Fatal("no assertions mined")
	}
	faults := []Fault{
		{Signal: "gnt0", StuckAt1: false},
		{Signal: "gnt0", StuckAt1: true},
		{Signal: "req1", StuckAt1: true},
	}
	dets, err := Campaign(d, asserts, faults, mc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range dets {
		if det.Detected == 0 {
			t.Errorf("%s not detected by any of %d assertions", det.Fault, det.Total)
		}
		if det.Detected != len(det.Detecting) {
			t.Errorf("%s: count mismatch", det.Fault)
		}
	}
}

func TestStuckAtDifferentPolaritiesDiffer(t *testing.T) {
	// Sanity for Table 2's shape: the two polarities of one signal are
	// generally detected by different numbers of assertions.
	d := mustDesign(t, arbiterSrc)
	e, _ := core.NewEngine(d, core.DefaultConfig())
	res, err := e.MineAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	asserts := res.Assertions()
	dets, err := Campaign(d, asserts, []Fault{
		{Signal: "req0", StuckAt1: false},
		{Signal: "req0", StuckAt1: true},
	}, mc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dets[0].Detected == 0 && dets[1].Detected == 0 {
		t.Error("req0 faults completely undetected")
	}
	t.Logf("req0 s-a-0 detected by %d, s-a-1 by %d of %d assertions",
		dets[0].Detected, dets[1].Detected, len(asserts))
}

func TestWholeAssertionSuiteStillProvesOnCleanDesign(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	e, _ := core.NewEngine(d, core.DefaultConfig())
	res, err := e.MineAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checker := mc.New(d)
	for _, a := range res.Assertions() {
		v, err := checker.Check(a)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == mc.StatusFalsified {
			t.Errorf("assertion fails on clean design: %s", a)
		}
	}
	_ = assertion.Assertion{} // keep import for clarity of the test's domain
}

// simAsserts mines the arbiter suite once for the simulation-campaign tests.
func simAsserts(t *testing.T, d *rtl.Design) []*assertion.Assertion {
	t.Helper()
	e, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.MineAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	asserts := res.Assertions()
	if len(asserts) == 0 {
		t.Fatal("no assertions mined")
	}
	return asserts
}

func TestSimCampaignMatchesScalarForce(t *testing.T) {
	// The 64-lane batched campaign must report exactly the detections of a
	// one-fault-at-a-time interpreter run with Simulator.Force.
	d := mustDesign(t, arbiterSrc)
	asserts := simAsserts(t, d)
	faults := []Fault{
		{Signal: "gnt0", StuckAt1: false},
		{Signal: "gnt0", StuckAt1: true},
		{Signal: "gnt1", StuckAt1: true},
		{Signal: "req0", StuckAt1: false},
		{Signal: "req1", StuckAt1: true},
	}
	stim := stimgen.Random(d, 400, 3, 2)
	dets, err := SimCampaign(d, asserts, faults, stim, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(faults) {
		t.Fatalf("detections %d want %d", len(dets), len(faults))
	}
	for i, f := range faults {
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		var v uint64
		if f.StuckAt1 {
			v = ^uint64(0)
		}
		if err := s.Force(f.Signal, v); err != nil {
			t.Fatal(err)
		}
		mon, err := monitor.New(d, asserts)
		if err != nil {
			t.Fatal(err)
		}
		s.Observe(mon.Observe)
		if _, err := s.Run(stim); err != nil {
			t.Fatal(err)
		}
		var want []int
		for ai, st := range mon.AssertionStats() {
			if st.Violations > 0 {
				want = append(want, ai)
			}
		}
		if !reflect.DeepEqual(dets[i].Detecting, want) {
			t.Errorf("%s: batched detecting %v, scalar force %v", f, dets[i].Detecting, want)
		}
		if dets[i].Detected != len(want) {
			t.Errorf("%s: count %d want %d", f, dets[i].Detected, len(want))
		}
	}
}

func TestSimCampaignDetectsFaults(t *testing.T) {
	// Register faults must be caught. (Input stuck-at faults can legitimately
	// escape simulation monitors: the forced value is visible in the trace, so
	// antecedents requiring the opposite polarity go vacuous — the formal
	// Campaign, which rewrites only the reads, is the stronger detector there.)
	d := mustDesign(t, arbiterSrc)
	asserts := simAsserts(t, d)
	faults := []Fault{
		{Signal: "gnt0", StuckAt1: false},
		{Signal: "gnt0", StuckAt1: true},
		{Signal: "gnt1", StuckAt1: true},
	}
	dets, err := SimCampaign(d, asserts, faults, stimgen.Random(d, 500, 7, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range dets {
		if det.Detected == 0 {
			t.Errorf("%s not detected by any of %d assertions", det.Fault, det.Total)
		}
		if det.Detected != len(det.Detecting) {
			t.Errorf("%s: count mismatch", det.Fault)
		}
	}
}

func TestSimCampaignChunksPast64Lanes(t *testing.T) {
	// More faults than lanes: the campaign must split into 64-lane chunks and
	// duplicate faults must produce identical detections.
	d := mustDesign(t, arbiterSrc)
	asserts := simAsserts(t, d)
	base := []Fault{
		{Signal: "gnt0", StuckAt1: false},
		{Signal: "gnt0", StuckAt1: true},
		{Signal: "gnt1", StuckAt1: false},
		{Signal: "gnt1", StuckAt1: true},
		{Signal: "req0", StuckAt1: true},
		{Signal: "req1", StuckAt1: true},
	}
	var faults []Fault
	for len(faults) < 70 {
		faults = append(faults, base...)
	}
	dets, err := SimCampaign(d, asserts, faults, stimgen.Random(d, 200, 13, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(faults) {
		t.Fatalf("detections %d want %d", len(dets), len(faults))
	}
	for i, det := range dets {
		ref := dets[i%len(base)]
		if !reflect.DeepEqual(det.Detecting, ref.Detecting) {
			t.Errorf("fault %d (%s): chunked detection %v differs from first-chunk %v",
				i, det.Fault, det.Detecting, ref.Detecting)
		}
	}
}

func TestSimCampaignUnknownSignal(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	if _, err := SimCampaign(d, nil, []Fault{{Signal: "ghost"}}, sim.Stimulus{{}}, nil, nil); err == nil {
		t.Error("unknown fault signal should error")
	}
}

// TestSignalIDsAreIndices: on every bundled design and one mutant of each,
// a signal's ID is its position in Signals, and the mutant shares the
// signals (so one ID-indexed table serves both).
func TestSignalIDsAreIndices(t *testing.T) {
	check := func(d *rtl.Design) {
		t.Helper()
		for i, s := range d.Signals {
			if s.ID != i {
				t.Errorf("%s: signal %s at position %d has ID %d", d.Name, s.Name, i, s.ID)
			}
		}
	}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		check(d)
		faults := AllFaults(d)
		if len(faults) == 0 {
			t.Fatalf("%s: no faults to inject", b.Name)
		}
		md, err := Apply(d, faults[0])
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		check(md)
		for _, s := range d.Signals {
			if !md.Owns(s) {
				t.Errorf("%s: mutant %s does not own %s", b.Name, md.Name, s.Name)
			}
		}
	}
	if n := len(designs.All()); n != 18 {
		t.Errorf("%d bundled designs, want 18", n)
	}
}

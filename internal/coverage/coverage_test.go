package coverage

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// randomSuite is a local deterministic stimulus source (stimgen now imports
// this package, so these in-package tests cannot import stimgen back).
func randomSuite(d *rtl.Design, lanes, cycles int, seed int64, resetCycles int) []sim.Stimulus {
	out := make([]sim.Stimulus, lanes)
	for l := range out {
		rng := rand.New(rand.NewSource(seed + int64(l)))
		stim := make(sim.Stimulus, 0, cycles)
		for c := 0; c < cycles; c++ {
			iv := sim.InputVec{}
			for _, in := range d.Inputs() {
				iv[in.Name] = rng.Uint64() & rtl.Mask(in.Width)
			}
			if c < resetCycles {
				if _, ok := iv["rst"]; ok {
					iv["rst"] = 1
				}
				if _, ok := iv["reset"]; ok {
					iv["reset"] = 1
				}
			}
			stim = append(stim, iv)
		}
		out[l] = stim
	}
	return out
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

func mustDesign(t *testing.T, src string) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestZeroCoverageInitially(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	r := c.Report()
	if r.Line.Covered != 0 || r.Toggle.Covered != 0 {
		t.Errorf("fresh collector should be empty: %s", r)
	}
	if r.Cycles != 0 {
		t.Errorf("cycles %d", r.Cycles)
	}
}

func TestBranchCoverageNeedsBothArms(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// Only reset cycles: the rst-taken branch is covered, not-taken is not.
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"rst": 1}}}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Branch.Covered != 1 || r.Branch.Total != 2 {
		t.Errorf("branch %d/%d want 1/2", r.Branch.Covered, r.Branch.Total)
	}
	// Now run without reset.
	if err := c.RunSuite([]sim.Stimulus{{{"req0": 1}, {"req0": 1}}}); err != nil {
		t.Fatal(err)
	}
	r = c.Report()
	if r.Branch.Covered != 2 {
		t.Errorf("branch %d/%d want 2/2", r.Branch.Covered, r.Branch.Total)
	}
}

func TestToggleCoverage(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// req0 0->1->0 and gnt0 follows: several toggles observed.
	suite := []sim.Stimulus{{
		{"rst": 1},
		{"req0": 1},
		{"req0": 1},
		{},
		{},
	}}
	if err := c.RunSuite(suite); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Toggle.Covered == 0 {
		t.Fatal("no toggles observed")
	}
	// 5 toggle signals (rst, req0, req1, gnt0, gnt1), 2 directions each.
	if r.Toggle.Total != 10 {
		t.Errorf("toggle total %d want 10", r.Toggle.Total)
	}
}

func TestToggleNotCountedAcrossRuns(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// Run 1 ends with req0=1; run 2 starts with req0=0. Without BeginRun
	// isolation this would count a spurious fall.
	suite := []sim.Stimulus{
		{{"req0": 1}},
		{{"req0": 0}},
	}
	if err := c.RunSuite(suite); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Toggle.Covered != 0 {
		t.Errorf("cross-run toggles counted: %d", r.Toggle.Covered)
	}
}

func TestToggleNotCountedAcrossRunsCompiled(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// Same isolation through the compiled engine: RunSuiteCompiled calls
	// BeginRun per stimulus, so run 1's last row must not pair with run 2's
	// first row.
	suite := []sim.Stimulus{
		{{"req0": 1}},
		{{"req0": 0}},
	}
	if err := c.RunSuiteCompiled(suite); err != nil {
		t.Fatal(err)
	}
	if r := c.Report(); r.Toggle.Covered != 0 {
		t.Errorf("cross-run toggles counted through compiled engine: %d", r.Toggle.Covered)
	}
}

func TestConditionCoverageBothValues(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	// Hold rst=1 forever: rst condition only seen true.
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"rst": 1}}}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Cond.Covered != 0 {
		t.Errorf("condition covered with single polarity: %d", r.Cond.Covered)
	}
	if err := c.RunSuite([]sim.Stimulus{{{}, {}}}); err != nil {
		t.Fatal(err)
	}
	r = c.Report()
	if r.Cond.Covered == 0 {
		t.Error("condition not covered after both polarities")
	}
}

func TestFSMCoverage(t *testing.T) {
	src := `
module fsm(input clk, rst, go, output reg busy);
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= 2'd2;
      2'd2: state <= 2'd0;
      default: state <= 2'd0;
    endcase
  end
  always @(*) busy = (state != 2'd0);
endmodule`
	d := mustDesign(t, src)
	c := New(d)
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"go": 1}}}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.FSM.Total != 3 {
		t.Fatalf("fsm states %d want 3", r.FSM.Total)
	}
	// Visited only state 0 so far (state 1 is entered at the edge after the
	// last observed cycle).
	if r.FSM.Covered != 1 {
		t.Errorf("fsm covered %d want 1", r.FSM.Covered)
	}
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"go": 1}, {}, {}, {}}}); err != nil {
		t.Fatal(err)
	}
	r = c.Report()
	if r.FSM.Covered != 3 {
		t.Errorf("fsm covered %d want 3 after full walk", r.FSM.Covered)
	}
}

func TestFSMTransitionsRecordTrueArcs(t *testing.T) {
	// Regression: Observe used to update the toggle prev storage before the
	// FSM loop read the previous state from it, so every recorded transition
	// was the self-loop (v, v). The walk 0→1→2→0 must record the real arcs.
	src := `
module fsm(input clk, rst, go, output reg busy);
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= 2'd2;
      2'd2: state <= 2'd0;
      default: state <= 2'd0;
    endcase
  end
  always @(*) busy = (state != 2'd0);
endmodule`
	d := mustDesign(t, src)
	c := New(d)
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"go": 1}, {}, {}, {}}}); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	if len(st.FSMTrans) != 1 {
		t.Fatalf("fsm count %d want 1", len(st.FSMTrans))
	}
	for _, arc := range [][2]uint64{{0, 1}, {1, 2}, {2, 0}} {
		if !st.FSMTrans[0][arc] {
			t.Errorf("arc %d->%d not recorded: %v", arc[0], arc[1], st.FSMTrans[0])
		}
	}
	if st.FSMTrans[0][[2]uint64{1, 1}] || st.FSMTrans[0][[2]uint64{2, 2}] {
		t.Errorf("spurious self-loop recorded: %v", st.FSMTrans[0])
	}
}

func TestFSMTransitionsNotPairedAcrossRuns(t *testing.T) {
	src := `
module fsm(input clk, rst, go, output reg busy);
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= 2'd2;
      2'd2: state <= 2'd0;
      default: state <= 2'd0;
    endcase
  end
  always @(*) busy = (state != 2'd0);
endmodule`
	d := mustDesign(t, src)
	c := New(d)
	// Run 1 ends in state 1; run 2 starts (after reset) in state 0. The
	// boundary must not record a 1->0 arc — only the in-run 0->1 arcs.
	suite := []sim.Stimulus{
		{{"rst": 1}, {"go": 1}, {}},
		{{"rst": 1}, {"go": 1}, {}},
	}
	if err := c.RunSuite(suite); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	if st.FSMTrans[0][[2]uint64{1, 0}] {
		t.Errorf("cross-run arc 1->0 recorded: %v", st.FSMTrans[0])
	}
	if !st.FSMTrans[0][[2]uint64{0, 1}] {
		t.Errorf("in-run arc 0->1 missing: %v", st.FSMTrans[0])
	}
}

func TestStateSnapshotIsCopy(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"req0": 1}, {}}}); err != nil {
		t.Fatal(err)
	}
	st := c.State()
	before := c.Report()
	// Mutating the snapshot must not leak back into the collector.
	for i := range st.SeenTrue {
		st.SeenTrue[i] = !st.SeenTrue[i]
	}
	for i := range st.Rise {
		for b := range st.Rise[i] {
			st.Rise[i][b] = !st.Rise[i][b]
		}
	}
	if after := c.Report(); before != after {
		t.Errorf("snapshot mutation leaked: %s vs %s", before, after)
	}
	if st.Cycles != before.Cycles {
		t.Errorf("snapshot cycles %d want %d", st.Cycles, before.Cycles)
	}
}

func TestFullRandomCoverageApproaches100(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	var stim sim.Stimulus
	stim = append(stim, sim.InputVec{"rst": 1})
	// Deterministic sweep through all 8 input combinations repeatedly.
	for i := 0; i < 64; i++ {
		stim = append(stim, sim.InputVec{
			"rst":  uint64(i>>5) & 1 & uint64(i%13/12), // rare reset
			"req0": uint64(i) & 1,
			"req1": uint64(i>>1) & 1,
		})
	}
	if err := c.RunSuite([]sim.Stimulus{stim}); err != nil {
		t.Fatal(err)
	}
	r := c.Report()
	if r.Line.Pct() != 100 {
		t.Errorf("line %.1f", r.Line.Pct())
	}
	if r.Branch.Pct() != 100 {
		t.Errorf("branch %.1f", r.Branch.Pct())
	}
	if r.Cond.Pct() != 100 {
		t.Errorf("cond %.1f: uncovered %v", r.Cond.Pct(), uncoveredOf(d, c))
	}
}

// uncoveredOf lists uncovered point descriptions via the structured
// PointCovered API (the retired string helper, reconstructed for tests).
func uncoveredOf(d *rtl.Design, c *Collector) []string {
	var out []string
	for i, p := range d.Cover.Points {
		if !c.PointCovered(i) {
			out = append(out, p.String())
		}
	}
	return out
}

func TestMetricString(t *testing.T) {
	m := Metric{Covered: 1, Total: 2}
	if m.String() != "50.00%" {
		t.Errorf("got %s", m.String())
	}
	empty := Metric{}
	if empty.String() != "X" || empty.Pct() != 100 || empty.Defined() {
		t.Errorf("empty metric: %s %f", empty.String(), empty.Pct())
	}
}

func TestReportString(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	s := c.Report().String()
	for _, k := range []string{"line=", "branch=", "cond=", "toggle="} {
		if !strings.Contains(s, k) {
			t.Errorf("report %q missing %q", s, k)
		}
	}
}

func TestUncoveredPointsShrink(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New(d)
	before := len(uncoveredOf(d, c))
	if err := c.RunSuite([]sim.Stimulus{{{"rst": 1}, {"req0": 1}, {}}}); err != nil {
		t.Fatal(err)
	}
	after := len(uncoveredOf(d, c))
	if after >= before {
		t.Errorf("uncovered points did not shrink: %d -> %d", before, after)
	}
}

func TestRunSuiteCompiledMatchesInterpreter(t *testing.T) {
	// Identical coverage reports from the interpreter and the compiled
	// engine over every bundled design: the observer hook and the batch
	// engine's recorded lanes must see the same settled environment. Suite
	// sizes straddle the 64-lane chunk boundary (0, 1, 64, 65, 130 stimuli,
	// ragged lengths, zero-cycle stimuli included).
	for _, b := range designs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			d, err := b.Design()
			if err != nil {
				t.Fatal(err)
			}
			suites := [][]sim.Stimulus{randomSuite(d, 4, 150, 23, 2)}
			for _, n := range []int{0, 1, 64, 65, 130} {
				suite := make([]sim.Stimulus, n)
				for l := range suite {
					// Lengths 0..47; lanes 1, 49 and 97 get zero cycles.
					suite[l] = randomSuite(d, 1, (l*37+11)%48, int64(100+l), 2)[0]
				}
				suites = append(suites, suite)
			}
			for _, suite := range suites {
				ci := New(d)
				if err := ci.RunSuite(suite); err != nil {
					t.Fatal(err)
				}
				cc := New(d)
				if err := cc.RunSuiteCompiled(suite); err != nil {
					t.Fatal(err)
				}
				ri, rc := ci.Report(), cc.Report()
				if ri != rc {
					t.Errorf("%d stimuli: coverage diverges:\ninterpreter: %s\ncompiled:    %s", len(suite), ri, rc)
				}
				ui, uc := uncoveredOf(d, ci), uncoveredOf(d, cc)
				if len(ui) != len(uc) {
					t.Fatalf("%d stimuli: uncovered point counts differ: %d vs %d", len(suite), len(ui), len(uc))
				}
				for i := range ui {
					if ui[i] != uc[i] {
						t.Errorf("%d stimuli: uncovered point %d: %q vs %q", len(suite), i, ui[i], uc[i])
					}
				}
			}

			// The experiments' shape: one long single-lane stimulus whose
			// parts are joined with a reset cycle between them, then a
			// shorter suite on the same collectors, so the batch machine
			// reuses the long run's trace storage.
			var long sim.Stimulus
			for i, part := range randomSuite(d, 8, 520, 300, 2) {
				if i > 0 && d.Signal("rst") != nil && d.Signal("rst").Kind == rtl.SigInput {
					long = append(long, sim.InputVec{"rst": 1})
				}
				long = append(long, part...)
			}
			if len(long) < 4096 {
				t.Fatalf("long stimulus has %d cycles, want >= 4096", len(long))
			}
			ci, cc := New(d), New(d)
			for _, suite := range [][]sim.Stimulus{{long}, randomSuite(d, 3, 100, 77, 2)} {
				if err := ci.RunSuite(suite); err != nil {
					t.Fatal(err)
				}
				if err := cc.RunSuiteCompiled(suite); err != nil {
					t.Fatal(err)
				}
				if si, sc := ci.State(), cc.State(); !reflect.DeepEqual(si, sc) {
					t.Fatalf("%d stimuli after the long run: compiled collector state differs from the interpreter's\ninterpreter: %s\ncompiled:    %s",
						len(suite), ci.Report(), cc.Report())
				}
			}
		})
	}
}

package monitor_test

import (
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/monitor"
	"goldmine/internal/mutate"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

func arbiterSuite(t *testing.T) (*rtl.Design, []*assertion.Assertion) {
	return minedSuite(t, "arbiter2")
}

func TestMonitorCleanOnCorrectDesign(t *testing.T) {
	d, suite := arbiterSuite(t)
	m, err := monitor.New(d, suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunSuite([]sim.Stimulus{stimgen.Random(d, 3000, 5, 2)}); err != nil {
		t.Fatal(err)
	}
	if !m.Clean() {
		v := m.Violations()[0]
		t.Fatalf("proved assertion %d violated at cycle %d: %s", v.Index, v.Cycle, suite[v.Index])
	}
	// Long random stimulus should activate most assertions.
	if m.VacuousCount() == len(suite) {
		t.Error("no assertion ever activated")
	}
}

func TestMonitorCatchesInjectedFault(t *testing.T) {
	d, suite := arbiterSuite(t)
	mutant, err := mutate.Apply(d, mutate.Fault{Signal: "gnt0", StuckAt1: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(mutant, suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunSuite([]sim.Stimulus{stimgen.Random(mutant, 500, 5, 2)}); err != nil {
		t.Fatal(err)
	}
	if m.Clean() {
		t.Fatal("stuck-at fault escaped the assertion monitor")
	}
	// Stats must be consistent: violations <= activations per assertion.
	for i, st := range m.AssertionStats() {
		if st.Violations > st.Activations {
			t.Errorf("assertion %d: violations %d > activations %d", i, st.Violations, st.Activations)
		}
	}
}

func TestMonitorWindowBoundaries(t *testing.T) {
	// A two-cycle-window assertion must not fire across BeginRun boundaries.
	d, _ := rtl.ElaborateSource(`
module m(input clk, a, output reg q);
  always @(posedge clk) q <= a;
endmodule`)
	// a ==> X q: trivially true of the design.
	a := &assertion.Assertion{
		Output:     "q",
		Antecedent: []assertion.Prop{assertion.P("a", 0, 1, 1)},
		Consequent: assertion.P("q", 1, 1, 1),
	}
	m, err := monitor.New(d, []*assertion.Assertion{a})
	if err != nil {
		t.Fatal(err)
	}
	// Run 1 ends with a=1; run 2 starts with q=0 — without run isolation
	// this would register a spurious violation.
	if err := m.RunSuite([]sim.Stimulus{
		{{"a": 1}},
		{{"a": 0}, {"a": 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if !m.Clean() {
		t.Fatalf("spurious cross-run violation: %+v", m.Violations())
	}
	// Within one run it fires correctly on a real violation of a false rule.
	bad := &assertion.Assertion{
		Output:     "q",
		Antecedent: []assertion.Prop{assertion.P("a", 0, 1, 1)},
		Consequent: assertion.P("q", 1, 0, 1), // wrong: q follows a
	}
	m2, _ := monitor.New(d, []*assertion.Assertion{bad})
	if err := m2.RunSuite([]sim.Stimulus{{{"a": 1}, {"a": 0}}}); err != nil {
		t.Fatal(err)
	}
	if m2.Clean() {
		t.Fatal("false assertion not caught")
	}
	if m2.Violations()[0].Cycle != 0 {
		t.Errorf("violation cycle %d want 0", m2.Violations()[0].Cycle)
	}
}

func TestMonitorUnknownSignal(t *testing.T) {
	d, _ := rtl.ElaborateSource(`module m(input a, output y); assign y = a; endmodule`)
	bad := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{assertion.P("ghost", 0, 1, 1)},
		Consequent: assertion.P("y", 0, 1, 1),
	}
	if _, err := monitor.New(d, []*assertion.Assertion{bad}); err == nil {
		t.Error("unknown signal should error")
	}
}

// TestMonitorRejectsOffsetAboveBound: an offset past assertion.MaxOffset is
// an error, not a window buffer sized by it (1<<62 overflows the make, 1<<40
// would allocate terabytes).
func TestMonitorRejectsOffsetAboveBound(t *testing.T) {
	d, _ := rtl.ElaborateSource(`module m(input a, output y); assign y = a; endmodule`)
	for _, off := range []int{1 << 62, 1 << 40, assertion.MaxOffset + 1} {
		cons := &assertion.Assertion{
			Output:     "y",
			Antecedent: []assertion.Prop{assertion.P("a", 0, 1, 1)},
			Consequent: assertion.P("y", off, 1, 1),
		}
		ant := &assertion.Assertion{
			Output:     "y",
			Antecedent: []assertion.Prop{assertion.P("a", off, 1, 1)},
			Consequent: assertion.P("y", 0, 1, 1),
		}
		for _, a := range []*assertion.Assertion{cons, ant} {
			if _, err := monitor.New(d, []*assertion.Assertion{a}); err == nil {
				t.Errorf("offset %d accepted (consequent at %d)", off, a.Consequent.Offset)
			}
		}
	}
	ok := &assertion.Assertion{
		Output:     "y",
		Antecedent: []assertion.Prop{assertion.P("a", 0, 1, 1)},
		Consequent: assertion.P("y", assertion.MaxOffset, 1, 1),
	}
	if _, err := monitor.New(d, []*assertion.Assertion{ok}); err != nil {
		t.Errorf("offset at the bound rejected: %v", err)
	}
}

func TestMonitorViolationCap(t *testing.T) {
	d, _ := rtl.ElaborateSource(`module m(input a, output y); assign y = a; endmodule`)
	alwaysWrong := &assertion.Assertion{
		Output:     "y",
		Consequent: assertion.P("y", 0, 1, 1), // claims y always 1
	}
	m, _ := monitor.New(d, []*assertion.Assertion{alwaysWrong})
	m.MaxViolations = 3
	var stim sim.Stimulus
	for i := 0; i < 10; i++ {
		stim = append(stim, sim.InputVec{"a": 0})
	}
	if err := m.RunSuite([]sim.Stimulus{stim}); err != nil {
		t.Fatal(err)
	}
	if len(m.Violations()) != 3 {
		t.Errorf("violations recorded %d want cap 3", len(m.Violations()))
	}
	if m.AssertionStats()[0].Violations != 10 {
		t.Errorf("stats must keep counting past the cap: %d", m.AssertionStats()[0].Violations)
	}
}

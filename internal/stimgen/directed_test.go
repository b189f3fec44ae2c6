package stimgen

import (
	"context"
	"reflect"
	"testing"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
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

const fsmSrc = `
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

func mustElab(t *testing.T, src string) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// --- Repeat/Concat edge cases -------------------------------------------

func TestRepeatZeroAndEmpty(t *testing.T) {
	a := sim.Stimulus{{"a": 1}}
	if r := Repeat(a, 0); len(r) != 0 {
		t.Errorf("Repeat n=0 yielded %d cycles", len(r))
	}
	if r := Repeat(sim.Stimulus{}, 5); len(r) != 0 {
		t.Errorf("Repeat of empty stimulus yielded %d cycles", len(r))
	}
	if r := Repeat(nil, 3); len(r) != 0 {
		t.Errorf("Repeat of nil stimulus yielded %d cycles", len(r))
	}
}

func TestConcatZeroCycleParts(t *testing.T) {
	a := sim.Stimulus{{"a": 1}}
	if c := Concat(); c != nil {
		t.Errorf("empty Concat: %v", c)
	}
	c := Concat(sim.Stimulus{}, a, nil, a)
	if len(c) != 2 {
		t.Fatalf("Concat with empty parts: %d cycles want 2", len(c))
	}
	for _, iv := range c {
		if iv["a"] != 1 {
			t.Errorf("Concat dropped values: %v", c)
		}
	}
}

func TestConcatMismatchedVectorsReplay(t *testing.T) {
	// Parts driving different input subsets (and out-of-width values) must
	// concatenate and replay: missing inputs default to 0, wide values are
	// masked by the simulator, identically on both engines.
	d := mustElab(t, arbiterSrc)
	parts := Concat(
		sim.Stimulus{{"rst": 1}},
		sim.Stimulus{{"req0": 1}, {"req1": 0xff}}, // req1 is 1 bit wide
		sim.Stimulus{{}},                          // drives nothing
	)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := s.Run(parts)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := simc.SimulateBatch(d, []sim.Stimulus{parts})
	if err != nil {
		t.Fatal(err)
	}
	if tc := tcs[0]; !reflect.DeepEqual(ti.Values, tc.Values) {
		t.Errorf("replay diverges:\ninterp:   %v\ncompiled: %v", ti.Values, tc.Values)
	}
}

// --- DirectedFromHoles ---------------------------------------------------

func freshHoles(t *testing.T, d *rtl.Design) []*holes.Hole {
	t.Helper()
	return holes.FromCollector(coverage.New(d))
}

func TestDirectedFromHolesProducesWitnesses(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	hs := freshHoles(t, d)
	attempts, err := DirectedFromHoles(context.Background(), d, hs, DirectedOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != len(hs) {
		t.Fatalf("attempts %d want %d", len(attempts), len(hs))
	}
	sat := 0
	for i, at := range attempts {
		if at.Hole != hs[i] {
			t.Fatalf("attempt %d not positional", i)
		}
		switch at.Method {
		case MethodSAT, MethodFuzz:
			if len(at.Stim) == 0 || len(at.Stim) != at.Depth {
				t.Errorf("%s: stim %d cycles, depth %d", at.Hole.Key(), len(at.Stim), at.Depth)
			}
			if at.Method == MethodSAT {
				sat++
			}
			// The witness must actually exercise the hole when replayed.
			s, err := sim.New(d)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run(at.Stim)
			if err != nil {
				t.Fatal(err)
			}
			if at.Hole.Hit(tr) < 0 {
				t.Errorf("%s: %s witness does not exercise the hole", at.Hole.Key(), at.Method)
			}
		case MethodShared:
			// No stimulus of its own: the named sibling's witness covers it.
			if at.Stim != nil || at.Via == "" {
				t.Errorf("%s: shared attempt stim=%v via=%q", at.Hole.Key(), at.Stim, at.Via)
			}
			var owner *HoleAttempt
			for _, o := range attempts {
				if o.Hole.Key() == at.Via {
					owner = o
					break
				}
			}
			if owner == nil || owner.Stim == nil {
				t.Errorf("%s: shared via %q which has no witness", at.Hole.Key(), at.Via)
				continue
			}
			s, err := sim.New(d)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := s.Run(owner.Stim)
			if err != nil {
				t.Fatal(err)
			}
			if at.Hole.Hit(tr) < 0 {
				t.Errorf("%s: sibling %q witness does not cover it", at.Hole.Key(), at.Via)
			}
		case MethodDead:
			if at.Stim != nil || at.K < 1 {
				t.Errorf("%s: dead attempt stim=%v k=%d", at.Hole.Key(), at.Stim, at.K)
			}
		case MethodUnreachable, MethodOpen, MethodError:
		default:
			t.Errorf("%s: unknown method %q", at.Hole.Key(), at.Method)
		}
	}
	if sat == 0 {
		t.Error("no hole was closed by the SAT path")
	}
}

func TestDirectedSATStimuliReplayIdenticallyCompiled(t *testing.T) {
	// Differential: every SAT-decoded witness replays byte-identically
	// through the interpreter and the compiled engine.
	d := mustElab(t, fsmSrc)
	attempts, err := DirectedFromHoles(context.Background(), d, freshHoles(t, d), DirectedOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, at := range attempts {
		if at.Method != MethodSAT {
			continue
		}
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		ti, err := s.Run(at.Stim)
		if err != nil {
			t.Fatal(err)
		}
		tcs, err := simc.SimulateBatch(d, []sim.Stimulus{at.Stim})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ti.Values, tcs[0].Values) {
			t.Errorf("%s: SAT witness replay diverges between engines", at.Hole.Key())
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no SAT witnesses to check")
	}
}

func TestDirectedDeterministicAcrossWorkers(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	hs := freshHoles(t, d)
	run := func(workers int) []*HoleAttempt {
		at, err := DirectedFromHoles(context.Background(), d, hs, DirectedOptions{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	a1, a4 := run(1), run(4)
	for i := range a1 {
		if a1[i].Method != a4[i].Method || a1[i].Depth != a4[i].Depth {
			t.Errorf("hole %s: -j1 %s@%d vs -j4 %s@%d", hs[i].Key(),
				a1[i].Method, a1[i].Depth, a4[i].Method, a4[i].Depth)
		}
		if !reflect.DeepEqual(a1[i].Stim, a4[i].Stim) {
			t.Errorf("hole %s: stimuli differ across worker counts", hs[i].Key())
		}
	}
}

func TestFocusedLanesHoldNonConeInputsAtZero(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	focus := []*rtl.Signal{d.MustSignal("req0")}
	lanes := FocusedLanes(d, focus, 4, 20, 9, 2)
	if len(lanes) != 4 {
		t.Fatalf("lanes %d", len(lanes))
	}
	sawReq0 := false
	for _, stim := range lanes {
		for c, iv := range stim {
			if iv["req1"] != 0 {
				t.Fatalf("non-cone input req1 driven: cycle %d %v", c, iv)
			}
			if c >= 2 && iv["rst"] != 0 {
				t.Fatalf("rst outside cone asserted after prefix: cycle %d", c)
			}
			if c < 2 && iv["rst"] != 1 {
				t.Fatalf("reset prefix not asserted: cycle %d %v", c, iv)
			}
			if iv["req0"] == 1 {
				sawReq0 = true
			}
		}
	}
	if !sawReq0 {
		t.Error("focused input req0 never toggled")
	}
}

// --- CloseCoverage -------------------------------------------------------

func TestCloseCoverageImprovesOverSeed(t *testing.T) {
	d := mustElab(t, fsmSrc)
	// A tiny, deliberately bad seed so there is room to close.
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 1},
		SeedLanes:       1,
		SeedCycles:      4,
		MaxIterations:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ib, fb := res.Initial, res.Final
	if fb.Branch.Covered < ib.Branch.Covered || fb.FSM.Covered < ib.FSM.Covered ||
		fb.Toggle.Covered < ib.Toggle.Covered {
		t.Errorf("coverage regressed: %s -> %s", ib, fb)
	}
	if fb.FSM.Covered != fb.FSM.Total {
		t.Errorf("closure left FSM states open: %s (methods %v)", fb, res.Methods)
	}
	if res.CyclesUsed == 0 || len(res.Suite) == 0 {
		t.Error("no suite produced")
	}
	n := 0
	for _, s := range res.Suite {
		n += len(s)
	}
	if n != res.CyclesUsed {
		t.Errorf("CyclesUsed %d but suite holds %d cycles", res.CyclesUsed, n)
	}
}

func TestCloseCoverageDeterministic(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	run := func(workers int) *ClosureResult {
		res, err := CloseCoverage(context.Background(), d, ClosureOptions{
			DirectedOptions: DirectedOptions{Seed: 42, Workers: workers},
			SeedLanes:       2,
			SeedCycles:      8,
			MaxIterations:   3,
			TotalCycles:     256,
			FillRandom:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	if !reflect.DeepEqual(r1.Suite, r4.Suite) {
		t.Error("suites differ between -j1 and -j4")
	}
	if r1.Final != r4.Final {
		t.Errorf("final reports differ: %s vs %s", r1.Final, r4.Final)
	}
	// Fixed seed, same options: byte-identical on a second run.
	again := run(1)
	if !reflect.DeepEqual(r1.Suite, again.Suite) {
		t.Error("suite not reproducible for a fixed seed")
	}
}

func TestCloseCoverageRespectsCycleBudget(t *testing.T) {
	d := mustElab(t, arbiterSrc)
	res, err := CloseCoverage(context.Background(), d, ClosureOptions{
		DirectedOptions: DirectedOptions{Seed: 5},
		SeedLanes:       2,
		SeedCycles:      16,
		TotalCycles:     40,
		MaxIterations:   4,
		FillRandom:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CyclesUsed > 40 {
		t.Errorf("budget exceeded: %d cycles", res.CyclesUsed)
	}
	if res.CyclesUsed != 40 {
		t.Errorf("FillRandom did not top up to the budget: %d/40", res.CyclesUsed)
	}
}

// TestCloseCoverageCompiledMatchesInterpreter: closure collects coverage on the
// batch engine; replaying its suite through the interpreter-backed
// collector must reproduce the reported final coverage. The closure's own
// collector counts re-collected cycles again, so only the replay's Cycles is
// pinned, to CyclesUsed.
// b12's 512-cycle budget parks witnesses, so the replay also covers the
// compaction pass's evictions and readmissions.
func TestCloseCoverageCompiledMatchesInterpreter(t *testing.T) {
	b12, err := designs.Get("b12")
	if err != nil {
		t.Fatal(err)
	}
	d12, err := b12.Design()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d      *rtl.Design
		cycles int
	}{
		{mustElab(t, fsmSrc), 96},
		{mustElab(t, arbiterSrc), 96},
		{d12, 512},
	}
	for _, tc := range cases {
		d := tc.d
		for _, workers := range []int{1, 4} {
			res, err := CloseCoverage(context.Background(), d, ClosureOptions{
				DirectedOptions: DirectedOptions{Seed: 11, Workers: workers},
				TotalCycles:     tc.cycles,
				FillRandom:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			col := coverage.New(d)
			if err := col.RunSuite(res.Suite); err != nil {
				t.Fatal(err)
			}
			got := col.Report()
			if got.Cycles != res.CyclesUsed {
				t.Errorf("%s -j%d: replayed %d cycles, suite reports %d", d.Name, workers, got.Cycles, res.CyclesUsed)
			}
			got.Cycles = res.Final.Cycles
			if got != res.Final {
				t.Errorf("%s -j%d: replayed coverage %s, reported %s", d.Name, workers, got, res.Final)
			}
		}
	}
}

package mc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/mutate"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/telemetry"
)

// goldenFile pins the explicit-state engine's observable behaviour: for every
// bundled design the explicit engine accepts, the reachable state set (count
// and Reachable listing), the verdict, counterexample, depth and window-sim
// count of a fixed mined assertion suite, and the EquivResult of the design
// against a slice of its stuck-at mutants; plus the synthetic lane-boundary
// cases below. The values were recorded with the map-environment stepper
// that preceded the 64-lane batch engine, so equality here means the batch
// engine changed none of them. The one exception is the witness of an
// equivalence decided by the SAT miter, which was re-recorded when the
// miter began to return the lexicographically smallest distinguishing
// sequence (found by probe solves, as mining canonicalizes a
// counterexample) instead of a raw solver model; it no longer depends on
// the solver's heuristics, and recordEquiv replays every witness.
const goldenFile = "testdata/explicit_golden.json"

// goldenReachListMax bounds the Reachable listing stored verbatim; larger
// state sets are pinned by count and SHA-256 only.
const goldenReachListMax = 128

// goldenEquivFaults is how many stuck-at mutants (in mutate.AllFaults order)
// each design is compared against.
const goldenEquivFaults = 8

type goldenCheck struct {
	Assertion  *assertion.Assertion `json:"assertion"`
	Status     string               `json:"status"`
	Method     string               `json:"method"`
	Depth      int                  `json:"depth"`
	Ctx        sim.Stimulus         `json:"ctx,omitempty"`
	WindowSims int64                `json:"window_sims"`
}

type goldenEquiv struct {
	Fault  string       `json:"fault"`
	Status string       `json:"status"`
	Output string       `json:"output,omitempty"`
	Depth  int          `json:"depth"`
	Ctx    sim.Stimulus `json:"ctx,omitempty"`
}

type goldenDesign struct {
	Design          string        `json:"design"`
	ReachableStates int           `json:"reachable_states"`
	ReachableSHA256 string        `json:"reachable_sha256"`
	Reachable       []string      `json:"reachable,omitempty"`
	Checks          []goldenCheck `json:"checks"`
	Equiv           []goldenEquiv `json:"equiv,omitempty"`
}

type goldenSet struct {
	Designs []goldenDesign `json:"designs"`
	Lanes   []goldenDesign `json:"lanes"`
}

// laneSrc is the lane-boundary fixture. laneDesign strips the elaborator's
// truncating slice from cnt's next-state add, so the raw register takes the
// value 4 before wrapping: five reachable raw states (0,1,2,3,4 in BFS order)
// although cnt is a 2-bit register. With the six input bits of a free, each
// state owns 64 consecutive window items.
const laneSrc = `
module lanes(input clk, input [5:0] a, output y0, output y63, output y64, output [1:0] q);
  reg [1:0] cnt;
  always @(posedge clk) cnt <= cnt + 3'd1;
  assign q = cnt;
  assign y0 = (a == 6'd0);
  assign y63 = (a == 6'd63);
  assign y64 = (a == 6'd0) & (cnt == 2'd1);
endmodule`

// laneCase is one synthetic check whose enumeration layout is known: the
// window-sim count is the 1-based index of the first violating item in the
// flattened (BFS state, window sequence) order, or the item total if none.
type laneCase struct {
	name     string
	a        *assertion.Assertion
	wantSims int64
}

func bitProp(sig string, bit, off int, val uint64) assertion.Prop {
	return assertion.PBit(sig, bit, off, val)
}

func wholeProp(sig string, off int, val uint64, width int) assertion.Prop {
	return assertion.P(sig, off, val, width)
}

// laneCases covers window spaces below, at and not a multiple of 64 lanes,
// violations in lane 0, lane 63 and the first lane of the second word, and
// words whose lanes span two (or more) start states.
func laneCases() []laneCase {
	pin := func(bits ...int) []assertion.Prop {
		var ps []assertion.Prop
		for _, b := range bits {
			ps = append(ps, bitProp("a", b, 0, 0))
		}
		return ps
	}
	mk := func(name string, ant []assertion.Prop, cons assertion.Prop, sims int64) laneCase {
		return laneCase{name: name, wantSims: sims,
			a: &assertion.Assertion{Output: cons.Signal, Antecedent: ant, Consequent: cons}}
	}
	return []laneCase{
		// 64-item window space, violation in lane 0 of word 0.
		mk("violation-lane0", nil, wholeProp("y0", 0, 0, 1), 1),
		// 64-item window space, violation in lane 63 of word 0.
		mk("violation-lane63", nil, wholeProp("y63", 0, 0, 1), 64),
		// 64-item window space, violation in lane 0 of word 1 (state 1).
		mk("violation-word1-lane0", nil, wholeProp("y64", 0, 0, 1), 65),
		// 32-item window space: word 0 spans states 0 and 1; the violation
		// is the first lane of state 1.
		mk("span-two-states", pin(5), wholeProp("y64", 0, 0, 1), 33),
		// 16-item window space: word 0 spans four states.
		mk("span-four-states", pin(5, 4), wholeProp("y64", 0, 0, 1), 17),
		// 8-item window space, 40 items in all: less than one word.
		mk("proved-under-one-word", pin(5, 4, 3), wholeProp("y63", 0, 0, 1), 40),
		// 16-item window space, 80 items: not a multiple of 64.
		mk("proved-partial-tail", pin(5, 4), wholeProp("y63", 0, 0, 1), 80),
		// Exactly 64 items per state, five whole words; the antecedent is
		// a simulated (non-input) proposition.
		mk("proved-whole-words", []assertion.Prop{wholeProp("q", 0, 2, 2)}, wholeProp("y64", 0, 0, 1), 320),
		// Two-frame window: frame 0 pinned, frame 1 free; the violation is
		// lane 63 and needs the latch between frames.
		mk("two-frame-lane63", []assertion.Prop{wholeProp("a", 0, 5, 6)}, wholeProp("y63", 1, 0, 1), 64),
		// Two-frame window with a register proposition in the second frame:
		// q@1 == 2 holds only from state 1, so the first violation is item
		// 64 + 63.
		mk("two-frame-state-prop", []assertion.Prop{wholeProp("a", 0, 5, 6), wholeProp("q", 1, 2, 2)},
			wholeProp("y63", 1, 0, 1), 128),
	}
}

// recordChecks runs the suite on a fresh checker and records every verdict
// together with the window simulations the check performed.
func recordChecks(t testing.TB, d *rtl.Design, suite []*assertion.Assertion) []goldenCheck {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := mc.New(d)
	c.SetTelemetry(telemetry.New(reg, nil))
	sims := reg.Counter("mc.explicit_window_sims")
	var out []goldenCheck
	for _, a := range suite {
		before := sims.Value()
		res, err := c.Check(a)
		if err != nil {
			t.Fatalf("%s: check %s: %v", d.Name, a, err)
		}
		out = append(out, goldenCheck{
			Assertion: a, Status: res.Status.String(), Method: res.Method,
			Depth: res.Depth, Ctx: res.Ctx, WindowSims: sims.Value() - before,
		})
	}
	return out
}

// recordReach records the reachable state set of d.
func recordReach(t testing.TB, d *rtl.Design, g *goldenDesign) {
	t.Helper()
	c := mc.New(d)
	n, err := c.ReachableStates()
	if err != nil {
		t.Fatalf("%s: ReachableStates: %v", d.Name, err)
	}
	list, err := c.Reachable()
	if err != nil {
		t.Fatalf("%s: Reachable: %v", d.Name, err)
	}
	sum := sha256.Sum256([]byte(strings.Join(list, "\n")))
	g.ReachableStates = n
	g.ReachableSHA256 = hex.EncodeToString(sum[:])
	if len(list) <= goldenReachListMax {
		g.Reachable = list
	}
}

// recordEquiv compares d against its first stuck-at mutants.
func recordEquiv(t testing.TB, d *rtl.Design) []goldenEquiv {
	t.Helper()
	faults := mutate.AllFaults(d)
	if len(faults) > goldenEquivFaults {
		faults = faults[:goldenEquivFaults]
	}
	var out []goldenEquiv
	for _, f := range append([]mutate.Fault{{}}, faults...) {
		b, name := d, "none"
		if f.Signal != "" {
			var err error
			if b, err = mutate.Apply(d, f); err != nil {
				t.Fatalf("%s: mutate %s: %v", d.Name, f, err)
			}
			name = f.String()
		}
		res, err := mc.Equivalent(d, b, mc.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: equivalent %s: %v", d.Name, name, err)
		}
		if res.Status == mc.EquivDifferent {
			// Explicit or SAT-miter, a witness must tell the two designs
			// apart.
			ta, errA := sim.Simulate(d, res.Ctx)
			tb, errB := sim.Simulate(b, res.Ctx)
			if errA != nil || errB != nil {
				t.Fatalf("%s %s: replay: %v %v", d.Name, name, errA, errB)
			}
			last := len(res.Ctx) - 1
			va, _ := ta.Value(last, res.Output)
			vb, _ := tb.Value(last, res.Output)
			if va == vb {
				t.Errorf("%s %s: witness %v leaves %s=%d on both", d.Name, name, res.Ctx, res.Output, va)
			}
		}
		out = append(out, goldenEquiv{Fault: name, Status: res.Status.String(),
			Output: res.Output, Depth: res.Depth, Ctx: res.Ctx})
	}
	return out
}

// explicitDesigns returns the bundled designs the explicit engine accepts.
func explicitDesigns(t testing.TB) []*rtl.Design {
	t.Helper()
	var out []*rtl.Design
	for _, name := range designs.Names() {
		b, err := designs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		if mc.New(d).ExplicitOK {
			out = append(out, d)
		}
	}
	return out
}

func laneDesign(t testing.TB) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(laneSrc)
	if err != nil {
		t.Fatal(err)
	}
	cnt := d.MustSignal("cnt")
	sl, ok := d.Next[cnt].(*rtl.Slice)
	if !ok || sl.X.Width() <= cnt.Width {
		t.Fatalf("lane fixture: cnt's next state is %T, want a slice of a wider add", d.Next[cnt])
	}
	d.Next[cnt] = sl.X
	return d
}

func loadGolden(t *testing.T) *goldenSet {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenSet
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

// replayCtx simulates a counterexample on the reference interpreter and
// confirms its final window satisfies the antecedent and violates the
// consequent.
func replayCtx(t *testing.T, d *rtl.Design, a *assertion.Assertion, ctx sim.Stimulus) {
	t.Helper()
	tr, err := sim.Simulate(d, ctx)
	if err != nil {
		t.Fatalf("%s: replay %s: %v", d.Name, a, err)
	}
	t0 := len(ctx) - (a.Consequent.Offset + 1)
	if t0 < 0 {
		t.Fatalf("%s: ctx of %d cycles too short for %s", d.Name, len(ctx), a)
	}
	holds := func(p assertion.Prop) bool {
		v, err := tr.Value(t0+p.Offset, p.Signal)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bit >= 0 {
			v = v >> uint(p.Bit) & 1
		}
		return v == p.Value
	}
	for _, p := range a.Antecedent {
		if p.Offset <= a.Consequent.Offset && !holds(p) {
			t.Fatalf("%s: ctx for %s misses antecedent %s", d.Name, a, p)
		}
	}
	if holds(a.Consequent) {
		t.Fatalf("%s: ctx for %s does not violate the consequent", d.Name, a)
	}
}

func compareChecks(t *testing.T, d *rtl.Design, want []goldenCheck) {
	t.Helper()
	suite := make([]*assertion.Assertion, len(want))
	for i := range want {
		suite[i] = want[i].Assertion
	}
	got := recordChecks(t, d, suite)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			gj, _ := json.Marshal(got[i])
			wj, _ := json.Marshal(want[i])
			t.Errorf("%s check %d:\n got %s\nwant %s", d.Name, i, gj, wj)
			continue
		}
		if got[i].Status == mc.StatusFalsified.String() {
			replayCtx(t, d, got[i].Assertion, got[i].Ctx)
		}
	}
}

func compareReach(t *testing.T, d *rtl.Design, want goldenDesign) {
	t.Helper()
	var got goldenDesign
	recordReach(t, d, &got)
	if got.ReachableStates != want.ReachableStates || got.ReachableSHA256 != want.ReachableSHA256 ||
		!reflect.DeepEqual(got.Reachable, want.Reachable) {
		t.Errorf("%s: reachable set: got %d states (%s), want %d (%s)", d.Name,
			got.ReachableStates, got.ReachableSHA256, want.ReachableStates, want.ReachableSHA256)
	}
}

// TestExplicitGolden: every recorded reachable set, explicit verdict,
// counterexample, depth, window-sim count and equivalence result is
// reproduced exactly, and every falsified counterexample replays on the
// interpreter.
func TestExplicitGolden(t *testing.T) {
	g := loadGolden(t)
	ds := explicitDesigns(t)
	if len(ds) != len(g.Designs) {
		t.Fatalf("%d bundled designs are explicit-eligible, golden file has %d", len(ds), len(g.Designs))
	}
	for i, d := range ds {
		want := g.Designs[i]
		if want.Design != d.Name {
			t.Fatalf("golden design %d is %s, want %s", i, want.Design, d.Name)
		}
		t.Run(d.Name, func(t *testing.T) {
			compareReach(t, d, want)
			compareChecks(t, d, want.Checks)
			got := recordEquiv(t, d)
			if !reflect.DeepEqual(got, want.Equiv) {
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want.Equiv)
				t.Errorf("equivalence results:\n got %s\nwant %s", gj, wj)
			}
		})
	}
}

// TestExplicitLaneBoundaries: the synthetic lane cases reproduce the recorded
// results, and their window-sim counts sit exactly where the enumeration
// layout puts the first violation (or the item total).
func TestExplicitLaneBoundaries(t *testing.T) {
	g := loadGolden(t)
	d := laneDesign(t)
	cases := laneCases()
	if len(g.Lanes) != 1 || len(g.Lanes[0].Checks) != len(cases) {
		t.Fatalf("golden lane section does not match the %d lane cases", len(cases))
	}
	want := g.Lanes[0]
	if want.ReachableStates != 5 {
		t.Fatalf("lane fixture: recorded %d raw states, want 5", want.ReachableStates)
	}
	compareReach(t, d, want)
	compareChecks(t, d, want.Checks)
	for i, lc := range cases {
		if !reflect.DeepEqual(want.Checks[i].Assertion, lc.a) {
			t.Fatalf("%s: golden assertion differs from the case table", lc.name)
		}
		if want.Checks[i].Method != "explicit" || want.Checks[i].WindowSims != lc.wantSims {
			t.Errorf("%s: %s after %d window sims, want explicit after %d", lc.name,
				want.Checks[i].Method, want.Checks[i].WindowSims, lc.wantSims)
		}
	}
}

// TestExplicitConcurrentChecks: eight goroutines run the recorded arbiter4
// and b03 suites on one checker at once — one compiled batch program, one
// pooled machine per in-flight check — and every verdict matches the golden
// record, with the reachability fixpoint built exactly once per checker.
// Meant for -race -count=N.
func TestExplicitConcurrentChecks(t *testing.T) {
	g := loadGolden(t)
	for _, want := range g.Designs {
		if want.Design != "arbiter4" && want.Design != "b03" {
			continue
		}
		b, err := designs.Get(want.Design)
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		c := mc.New(d)
		const workers = 8
		errs := make(chan string, workers*len(want.Checks))
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				for i := range want.Checks {
					// Stagger the start so goroutines overlap on different checks.
					wc := want.Checks[(i+w)%len(want.Checks)]
					res, err := c.Check(wc.Assertion)
					if err != nil {
						errs <- err.Error()
						return
					}
					if res.Status.String() != wc.Status || res.Method != wc.Method ||
						res.Depth != wc.Depth || !reflect.DeepEqual(res.Ctx, wc.Ctx) {
						errs <- want.Design + ": " + wc.Assertion.String() + " diverged under concurrency"
					}
				}
			}(w)
		}
		for w := 0; w < workers; w++ {
			<-done
		}
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if c.ReachBuilds != 1 {
			t.Errorf("%s: ReachBuilds = %d, want 1", want.Design, c.ReachBuilds)
		}
	}
}

package cnf

import (
	"testing"

	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
)

// TestSignalVecStableLiterals guards the frame-reuse contract the mc Session
// depends on: asking for the same signal vector at the same frame twice must
// return identical literals, so a property re-encoded against a shared
// unroller lands on the same variables.
func TestSignalVecStableLiterals(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	u := NewUnroller(sat.New(), d)
	u.AddFrame()
	u.AddFrame()
	for ti := 0; ti < 2; ti++ {
		for _, sig := range d.Signals {
			if sig.Name == d.Clock {
				continue
			}
			first, err := u.SignalVec(ti, sig)
			if err != nil {
				t.Fatalf("%s@%d: %v", sig.Name, ti, err)
			}
			again, err := u.SignalVec(ti, sig)
			if err != nil {
				t.Fatalf("%s@%d (second): %v", sig.Name, ti, err)
			}
			if len(first) != len(again) {
				t.Fatalf("%s@%d: widths differ %d vs %d", sig.Name, ti, len(first), len(again))
			}
			for b := range first {
				if first[b] != again[b] {
					t.Errorf("%s@%d bit %d: literal changed %d -> %d",
						sig.Name, ti, b, first[b], again[b])
				}
			}
		}
	}
}

// TestAddFrameAfterSolveSound checks that growing the unrolling after a solve
// is sound: the frames added later agree with the simulator just like the
// frames that were already solved against. This is the Session's deepening
// pattern (solve at depth k, extend to k+1, solve again).
func TestAddFrameAfterSolveSound(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	stim := randomStim(d, 4, 7)

	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	u.InitZero()

	pin := func(upTo int) []sat.Lit {
		var assumps []sat.Lit
		for ti := 0; ti < upTo; ti++ {
			for _, in := range d.Inputs() {
				vec, err := u.SignalVec(ti, in)
				if err != nil {
					t.Fatal(err)
				}
				for bit, lit := range vec {
					if (stim[ti][in.Name]>>uint(bit))&1 == 1 {
						assumps = append(assumps, lit)
					} else {
						assumps = append(assumps, lit.Neg())
					}
				}
			}
		}
		return assumps
	}

	if st := s.Solve(pin(1)...); st != sat.Sat {
		t.Fatalf("depth-1 solve = %v, want Sat", st)
	}

	// Grow the unrolling after the solve, then check every signal at
	// every frame against the simulator.
	for len(u.frames) < len(stim) {
		u.AddFrame()
	}
	trace, err := sim.Simulate(d, stim)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < len(stim); ti++ {
		for _, sig := range trace.Signals {
			if _, err := u.SignalVec(ti, sig); err != nil {
				t.Fatalf("encode %s@%d: %v", sig.Name, ti, err)
			}
		}
	}
	if st := s.Solve(pin(len(stim))...); st != sat.Sat {
		t.Fatalf("grown solve = %v, want Sat", st)
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

// TestLazyConeReduction checks the point of encoding on demand: referencing
// only gnt0 (whose next-state cone excludes gnt1) allocates strictly fewer
// solver variables than referencing every signal of the design.
func TestLazyConeReduction(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	gnt0 := d.MustSignal("gnt0")

	full := sat.New()
	uf := NewUnroller(full, d)
	uf.AddFrame()
	uf.AddFrame()
	uf.InitZero()
	for ti := 0; ti < 2; ti++ {
		for _, sig := range d.Signals {
			if sig.Name == d.Clock {
				continue
			}
			if _, err := uf.SignalVec(ti, sig); err != nil {
				t.Fatal(err)
			}
		}
	}

	lazySolver := sat.New()
	ul := NewUnroller(lazySolver, d)
	ul.AddFrame()
	ul.AddFrame()
	ul.InitZero()
	if _, err := ul.SignalVec(1, gnt0); err != nil {
		t.Fatal(err)
	}

	if lazySolver.NumVars() >= full.NumVars() {
		t.Errorf("gnt0 cone encoding uses %d vars, every signal uses %d; want strictly fewer",
			lazySolver.NumVars(), full.NumVars())
	}
	// gnt1 must not have been materialized by the gnt0 cone.
	f := ul.frames[1]
	if f.vecs[d.MustSignal("gnt1").ID] != nil {
		t.Error("gnt1 materialized at frame 1 despite not being in gnt0's cone")
	}
}

// TestLazyInitZeroAppliesLate checks that InitZero constrains registers that
// materialize only after the call: with the reset state zero, assuming
// gnt0@0 = 1 must be unsatisfiable.
func TestLazyInitZeroAppliesLate(t *testing.T) {
	d, _ := rtl.ElaborateSource(arbiterSrc)
	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	u.InitZero() // gnt0 not yet materialized
	vec, err := u.SignalVec(0, d.MustSignal("gnt0"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(vec[0]); st != sat.Unsat {
		t.Fatalf("gnt0@0=1 under InitZero: Solve = %v, want Unsat", st)
	}
	if st := s.Solve(vec[0].Neg()); st != sat.Sat {
		t.Fatalf("gnt0@0=0 under InitZero: Solve = %v, want Sat", st)
	}
}

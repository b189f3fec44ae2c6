package simc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"goldmine/internal/cnf"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

// TestBatchDifferentialAllDesigns packs 64 independent random lanes (of
// varying lengths) per design and requires every unpacked lane to match the
// interpreter row-for-row. Besides the bundled designs it runs two whose
// register's next-state adder is wider than the register: raw_width as
// elaborated, and raw_width_unsliced with the truncating slice stripped so
// the interpreter stores and traces the raw sum.
func TestBatchDifferentialAllDesigns(t *testing.T) {
	type namedDesign struct {
		name string
		d    *rtl.Design
	}
	raw, err := rtl.ElaborateSource(`
module m(input clk, input [3:0] a, b, output [1:0] y, output z);
  reg [1:0] y;
  wire z;
  assign z = y[1];
  always @(posedge clk) y <= a + b;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []namedDesign{{"raw_width", raw}, {"raw_width_unsliced", rawWidthDesign(t)}}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedDesign{b.Name, d})
	}
	for _, tc := range cases {
		d := tc.d
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, err := simc.CompileBatch(d, simc.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := sim.New(d)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			lanes := make([]sim.Stimulus, 64)
			for l := range lanes {
				cycles := 20 + rng.Intn(60) // deliberately ragged lane lengths
				lanes[l] = stimgen.Random(d, cycles, int64(l*31+7), 2)
			}
			m := simc.NewBatchMachine(p)
			traces, err := m.RunBatch(lanes)
			if err != nil {
				t.Fatal(err)
			}
			for l, got := range traces {
				want, err := s.Run(lanes[l])
				if err != nil {
					t.Fatal(err)
				}
				equalTraces(t, want, got, fmt.Sprintf("lane %d", l))
			}
		})
	}
}

// TestBatchReuseAndDeterminism reruns the same packed stimulus on one machine
// and on a second machine sharing the program; all runs must be identical.
func TestBatchReuseAndDeterminism(t *testing.T) {
	b, err := designs.Get("arbiter4")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]sim.Stimulus, 16)
	for l := range lanes {
		lanes[l] = stimgen.Random(d, 40, int64(l), 2)
	}
	m1 := simc.NewBatchMachine(p)
	t1, err := m1.RunBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m1.RunBatch(lanes) // same machine, after reset
	if err != nil {
		t.Fatal(err)
	}
	t3, err := simc.NewBatchMachine(p).RunBatch(lanes) // fresh machine
	if err != nil {
		t.Fatal(err)
	}
	for l := range lanes {
		equalTraces(t, t1[l], t2[l], fmt.Sprintf("rerun lane %d", l))
		equalTraces(t, t1[l], t3[l], fmt.Sprintf("fresh machine lane %d", l))
	}
}

// TestBatchForcedLanes pins stuck-at faults in individual lanes and compares
// each lane against an interpreter with the equivalent Simulator.Force.
func TestBatchForcedLanes(t *testing.T) {
	for _, name := range []string{"arbiter2", "b01", "b09"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := designs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := b.Design()
			if err != nil {
				t.Fatal(err)
			}
			// Force every non-clock signal somewhere: inputs, registers,
			// wires — one fault per lane, alternating stuck-at-0/1, lane 0
			// left fault-free as a control.
			var names []string
			for _, sig := range d.Signals {
				if sig.Name != d.Clock {
					names = append(names, sig.Name)
				}
			}
			p, err := simc.CompileBatch(d, simc.BatchOptions{Forceable: names})
			if err != nil {
				t.Fatal(err)
			}
			m := simc.NewBatchMachine(p)
			type fault struct {
				name string
				val  uint64
			}
			faults := map[int]fault{}
			lane := 1
			for i, n := range names {
				if lane >= 64 {
					break
				}
				var v uint64
				if i%2 == 1 {
					v = ^uint64(0) // masked to width by SetForce
				}
				if err := m.SetForce(lane, n, v); err != nil {
					t.Fatal(err)
				}
				faults[lane] = fault{n, v}
				lane++
			}
			stim := stimgen.Random(d, 80, 5, 2)
			lanes := make([]sim.Stimulus, lane)
			for l := range lanes {
				lanes[l] = stim
			}
			traces, err := m.RunBatch(lanes)
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lane; l++ {
				s, err := sim.New(d)
				if err != nil {
					t.Fatal(err)
				}
				if f, ok := faults[l]; ok {
					if err := s.Force(f.name, f.val); err != nil {
						t.Fatal(err)
					}
				}
				want, err := s.Run(stim)
				if err != nil {
					t.Fatal(err)
				}
				what := "control lane"
				if f, ok := faults[l]; ok {
					what = fmt.Sprintf("lane %d forcing %s=%d", l, f.name, f.val&rtl.Mask(d.MustSignal(f.name).Width))
				}
				equalTraces(t, want, traces[l], what)
			}
		})
	}
}

// TestBatchForceSharedExpression guards the hash-consing trap: forcing a wire
// must not leak the forced value into an unrelated identical expression.
func TestBatchForceSharedExpression(t *testing.T) {
	src := `
module m(input a, b, output y, z);
  wire w;
  assign w = a & b;
  assign y = w;
  assign z = (a & b) | w;
endmodule`
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{Forceable: []string{"w"}})
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewBatchMachine(p)
	if err := m.SetForce(1, "w", 1); err != nil {
		t.Fatal(err)
	}
	stim := sim.Stimulus{{"a": 0, "b": 0}, {"a": 1, "b": 0}}
	lanes := []sim.Stimulus{stim, stim}
	traces, err := m.RunBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 2; l++ {
		s, _ := sim.New(d)
		if l == 1 {
			if err := s.Force("w", 1); err != nil {
				t.Fatal(err)
			}
		}
		want, err := s.Run(stim)
		if err != nil {
			t.Fatal(err)
		}
		equalTraces(t, want, traces[l], fmt.Sprintf("shared-expr lane %d", l))
	}
	// Explicit spot check: in the forced lane z = (a&b)|w must read the
	// un-forced a&b for its first operand per interpreter semantics — with
	// a=b=0 and w forced to 1, z is (0)|1 = 1, and y follows w = 1.
	if v, _ := traces[1].Value(0, "z"); v != 1 {
		t.Errorf("forced lane z=%d want 1", v)
	}
	if v, _ := traces[0].Value(0, "y"); v != 0 {
		t.Errorf("control lane y=%d want 0", v)
	}
}

// TestBatchPackErrors checks lane-count limits and the interpreter's stimulus
// error strings.
func TestBatchPackErrors(t *testing.T) {
	b, _ := designs.Get("arbiter2")
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pack(nil); err == nil {
		t.Error("zero lanes should error")
	}
	if _, err := p.Pack(make([]sim.Stimulus, 65)); err == nil {
		t.Error("65 lanes should error")
	}
	s, _ := sim.New(d)
	for _, bad := range []sim.InputVec{{"nosuch": 1}, {"gnt0": 1}, {"clk": 1}} {
		werr := s.Step(bad, nil)
		_, gerr := p.Pack([]sim.Stimulus{{bad}})
		if werr == nil || gerr == nil {
			t.Fatalf("vector %v: interpreter err %v, pack err %v", bad, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Errorf("vector %v: error mismatch: interpreter %q vs pack %q", bad, werr, gerr)
		}
		s.Reset()
	}
	if err := simc.NewBatchMachine(p).SetForce(0, "gnt0", 1); err == nil {
		t.Error("forcing a non-forceable signal should error")
	}
	if err := simc.NewBatchMachine(p).SetForce(64, "gnt0", 1); err == nil {
		t.Error("lane 64 should error")
	}
}

// TestBatchForceClearAndRetarget moves a force between lanes across runs on
// one machine; cleared lanes must return to fault-free behavior.
func TestBatchForceClearAndRetarget(t *testing.T) {
	b, _ := designs.Get("arbiter2")
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{Forceable: []string{"gnt0", "req0"}})
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewBatchMachine(p)
	stim := stimgen.Random(d, 50, 21, 2)
	lanes := []sim.Stimulus{stim, stim, stim}

	if err := m.SetForce(1, "gnt0", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunBatch(lanes); err != nil {
		t.Fatal(err)
	}
	m.ClearForces()
	if err := m.SetForce(2, "req0", 1); err != nil {
		t.Fatal(err)
	}
	traces, err := m.RunBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 1 (previously forced) must now match the clean interpreter.
	s, _ := sim.New(d)
	want, err := s.Run(stim)
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, want, traces[0], "clean lane 0")
	equalTraces(t, want, traces[1], "unforced lane 1")
	sf, _ := sim.New(d)
	if err := sf.Force("req0", 1); err != nil {
		t.Fatal(err)
	}
	wantF, err := sf.Run(stim)
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, wantF, traces[2], "retargeted lane 2")
}

// rawWidthDesign returns a design whose register stores raw next-state bits
// above its width: y's add is four bits wide, and the elaborator's truncating
// slice is stripped so the interpreter keeps the raw sum.
func rawWidthDesign(t *testing.T) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(`
module raw(input clk, input [3:0] a, b, output [1:0] y, output z);
  reg [1:0] y;
  assign z = y[1];
  always @(posedge clk) y <= a + b;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	y := d.MustSignal("y")
	if sl, ok := d.Next[y].(*rtl.Slice); ok {
		d.Next[y] = sl.X
	}
	return d
}

// TestBatchStateLoadMatchesInterpreter drives the single-cycle API the
// explicit-state model checker uses. Lane l is loaded with the raw register
// state the interpreter holds at cycle l of a random run and settled with
// that cycle's inputs: every signal's lane value must equal the interpreter's
// raw trace value at cycle l, and after the latch every register must hold
// its raw value at cycle l+1.
func TestBatchStateLoadMatchesInterpreter(t *testing.T) {
	ds := []*rtl.Design{rawWidthDesign(t)}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		p, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stim := stimgen.Random(d, simc.MaxLanes+1, 5, 2)
		tr, err := sim.Simulate(d, stim)
		if err != nil {
			t.Fatal(err)
		}
		col := map[*rtl.Signal]int{}
		for j, s := range tr.Signals {
			col[s] = j
		}
		regs := d.Registers()
		m := simc.NewBatchMachine(p)
		in := make([]uint64, d.InputBits())
		for l := 0; l < simc.MaxLanes; l++ {
			state := make([]uint64, len(regs))
			for i, r := range regs {
				state[i] = tr.Values[l][col[r]]
			}
			m.LoadState(1<<uint(l), state)
			w := 0
			for _, inp := range d.Inputs() {
				for k := 0; k < inp.Width; k, w = k+1, w+1 {
					in[w] |= (stim[l][inp.Name] >> uint(k) & 1) << uint(l)
				}
			}
		}
		laneVal := func(ws []uint64, l int) uint64 {
			var v uint64
			for i, x := range ws {
				v |= (x >> uint(l) & 1) << uint(i)
			}
			return v
		}
		m.Settle(in)
		var ws []uint64
		for _, s := range tr.Signals {
			ws = m.Bits(s, ws)
			for l := 0; l < simc.MaxLanes; l++ {
				if got, want := laneVal(ws, l), tr.Values[l][col[s]]; got != want {
					t.Fatalf("%s: %s settled in lane %d = %#x, interpreter %#x", d.Name, s.Name, l, got, want)
				}
			}
		}
		m.Latch()
		for _, r := range regs {
			ws = m.Bits(r, ws)
			for l := 0; l < simc.MaxLanes; l++ {
				if got, want := laneVal(ws, l), tr.Values[l+1][col[r]]; got != want {
					t.Fatalf("%s: %s latched in lane %d = %#x, interpreter %#x", d.Name, r.Name, l, got, want)
				}
			}
		}
	}
}

// TestPackedStimAndColumnViews builds a packed stimulus input by input with
// SetInput and requires it to run exactly as Pack of the same vectors, then
// checks the trace's column views against the transposed lanes: Column's
// words and Live's masks, on every design.
func TestPackedStimAndColumnViews(t *testing.T) {
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		p, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(b.Name))))
		nl, cycles := 1+rng.Intn(simc.MaxLanes), 1+rng.Intn(30)
		ps, err := p.NewPackedStim(nl, cycles)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]sim.Stimulus, nl)
		for l := range lanes {
			lanes[l] = stimgen.Random(d, cycles, int64(l), 2)
			for c, iv := range lanes[l] {
				for i, in := range d.Inputs() {
					// Unmasked draws: SetInput masks to the width as Pack does.
					ps.SetInput(l, c, i, rng.Uint64())
					ps.SetInput(l, c, i, iv[in.Name]|rng.Uint64()<<uint(in.Width%64)&^rtl.Mask(in.Width))
				}
			}
		}
		// A machine's next run overwrites its trace: the reference runs on
		// a second machine.
		got, err := simc.NewBatchMachine(p).RunPacked(ps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simc.NewBatchMachine(p).RunBatch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l := range lanes {
			tr, err := got.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(tr.Values) != fmt.Sprint(want[l].Values) {
				t.Fatalf("%s lane %d: SetInput rows run differently from Pack", b.Name, l)
			}
			for c, row := range tr.Values {
				if got.Live(c)>>uint(l)&1 != 1 {
					t.Fatalf("%s: lane %d not live at cycle %d", b.Name, l, c)
				}
				for j, sig := range tr.Signals {
					var v uint64
					for i, w := range got.Column(sig, c) {
						v |= (w >> uint(l) & 1) << uint(i)
					}
					if v != row[j] {
						t.Fatalf("%s lane %d cycle %d %s: column %#x, trace %#x", b.Name, l, c, sig.Name, v, row[j])
					}
				}
			}
		}
		if clk := d.Signal(d.Clock); clk != nil && got.Column(clk, 0) != nil {
			t.Fatalf("%s: the clock has a column", b.Name)
		}
		if got.Live(cycles) != 0 || got.Live(-1) != 0 {
			t.Fatalf("%s: lanes live outside the trace", b.Name)
		}
	}
	b, err := designs.Get("arbiter2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, simc.MaxLanes + 1} {
		if _, err := p.NewPackedStim(n, 4); err == nil {
			t.Errorf("NewPackedStim(%d lanes) accepted", n)
		}
	}
	if _, err := p.NewPackedStim(1, -1); err == nil {
		t.Error("NewPackedStim with negative cycles accepted")
	}
}

// TestBroadcastMatchesPack requires Broadcast of one stimulus to run exactly
// like Pack of that many copies of it, every lane and cycle, and to reject
// what Pack rejects.
func TestBroadcastMatchesPack(t *testing.T) {
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		p, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// A machine's next run overwrites its trace: the reference runs on
		// a second machine.
		m, ref := simc.NewBatchMachine(p), simc.NewBatchMachine(p)
		for _, n := range []int{1, 37, simc.MaxLanes} {
			stim := stimgen.Random(d, 1+n%23, int64(n), 2)
			ps, err := p.Broadcast(stim, n)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Lanes() != n || ps.Cycles() != len(stim) {
				t.Fatalf("%s: broadcast of %d lanes packs %d lanes of %d cycles", b.Name, n, ps.Lanes(), ps.Cycles())
			}
			got, err := m.RunPacked(ps)
			if err != nil {
				t.Fatal(err)
			}
			copies := make([]sim.Stimulus, n)
			for l := range copies {
				copies[l] = stim
			}
			want, err := ref.RunBatch(copies)
			if err != nil {
				t.Fatal(err)
			}
			for l := range copies {
				tr, err := got.Lane(l)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(tr.Values) != fmt.Sprint(want[l].Values) {
					t.Fatalf("%s: lane %d of a %d-lane broadcast differs from Pack", b.Name, l, n)
				}
			}
		}
		for _, n := range []int{0, simc.MaxLanes + 1} {
			if _, err := p.Broadcast(sim.Stimulus{{}}, n); err == nil {
				t.Errorf("%s: broadcast to %d lanes accepted", b.Name, n)
			}
		}
		if _, err := p.Broadcast(sim.Stimulus{{"nosuch": 1}}, 2); err == nil {
			t.Errorf("%s: broadcast of an unknown input accepted", b.Name)
		}
	}
}

// TestForeignSignalsRejected hands every signal of a second elaboration of
// the same source to the ID-indexed lookups of the first: each signal's ID
// names a slot of the first design (the same-named signal), so a lookup
// that skipped the ownership check would return that signal's data. The
// batch trace and machine must return no words, the trace no column, and
// the unroller an error.
func TestForeignSignalsRejected(t *testing.T) {
	b, err := designs.Get("b12")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewBatchMachine(p)
	ps, err := p.Pack([]sim.Stimulus{stimgen.Random(d, 8, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := m.RunPacked(ps)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bt.Lane(0)
	if err != nil {
		t.Fatal(err)
	}
	u := cnf.NewUnroller(sat.New(), d)
	u.AddFrame()
	for _, s := range other.Signals {
		if s.Name == d.Clock {
			continue
		}
		own := d.MustSignal(s.Name)
		if len(bt.Column(own, 0)) == 0 || len(m.Bits(own, nil)) == 0 || tr.Col(own) < 0 {
			t.Fatalf("%s: the design's own signal has no data", s.Name)
		}
		if ws := bt.Column(s, 0); ws != nil {
			t.Errorf("%s: BatchTrace.Column returned %d words for a foreign signal", s.Name, len(ws))
		}
		if ws := m.Bits(s, nil); len(ws) != 0 {
			t.Errorf("%s: BatchMachine.Bits returned %d words for a foreign signal", s.Name, len(ws))
		}
		if j := tr.Col(s); j >= 0 {
			t.Errorf("%s: Trace.Col gave column %d to a foreign signal", s.Name, j)
		}
		if v, err := u.SignalVec(0, s); err == nil {
			t.Errorf("%s: SignalVec encoded a foreign signal (%d literals)", s.Name, len(v))
		}
	}
}

// TestRunPackedReuseMatchesFreshMachine runs suites of shrinking and growing
// lane counts and lengths through one machine, whose trace storage every run
// reuses: each run must equal a fresh machine's lane for lane, live masks and
// point words included, so nothing of a longer earlier run leaks into a
// shorter later one.
func TestRunPackedReuseMatchesFreshMachine(t *testing.T) {
	b, err := designs.Get("b12")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{Points: true})
	if err != nil {
		t.Fatal(err)
	}
	reused := simc.NewBatchMachine(p)
	rng := rand.New(rand.NewSource(41))
	for _, shape := range [][2]int{{64, 40}, {3, 7}, {1, 0}, {20, 90}, {64, 12}, {2, 90}} {
		lanes := make([]sim.Stimulus, shape[0])
		for l := range lanes {
			lanes[l] = stimgen.Random(d, rng.Intn(shape[1]+1), rng.Int63(), 2)
		}
		ps, err := p.Pack(lanes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.RunPacked(ps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simc.NewBatchMachine(p).RunPacked(ps)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles() != want.Cycles() || got.Lanes() != want.Lanes() {
			t.Fatalf("%v: reused trace is %d lanes × %d cycles, fresh %d × %d", shape, got.Lanes(), got.Cycles(), want.Lanes(), want.Cycles())
		}
		for c := 0; c <= want.Cycles(); c++ {
			if got.Live(c) != want.Live(c) {
				t.Fatalf("%v cycle %d: reused live %#x, fresh %#x", shape, c, got.Live(c), want.Live(c))
			}
			if c == want.Cycles() {
				break
			}
			for i := range d.Cover.Points {
				if got.Point(i, c) != want.Point(i, c) {
					t.Fatalf("%v cycle %d: point %d differs", shape, c, i)
				}
			}
		}
		for l := range lanes {
			gl, err := got.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := want.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, wl, gl, "reused lane")
		}
	}
}

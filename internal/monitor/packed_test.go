package monitor_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/monitor"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

// minedSuite mines every output of a bundled design at its experiment
// window from its directed (or default) seed.
func minedSuite(t testing.TB, name string) (*rtl.Design, []*assertion.Assertion) {
	t.Helper()
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Window = b.Window
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seed sim.Stimulus
	if b.Directed != nil {
		seed = b.Directed()
	}
	res, err := eng.MineAll(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d, res.Assertions()
}

// laneForce pins one signal of one lane, as a stuck-at fault does.
type laneForce struct {
	sig string
	val uint64
}

// booking is what a monitor records: per-assertion counts, the activation
// sequence as (assertion, cycle) pairs, and the capped violation list.
type booking struct {
	stats       []monitor.Stats
	activations [][2]int
	violations  []monitor.Violation
}

const testMaxViolations = 7

// newBooked builds a monitor with a small violation cap whose activations
// land in b.
func newBooked(t testing.TB, d *rtl.Design, suite []*assertion.Assertion, b *booking) *monitor.Monitor {
	t.Helper()
	m, err := monitor.New(d, suite)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxViolations = testMaxViolations
	m.OnActivation = func(ai, cycle int) { b.activations = append(b.activations, [2]int{ai, cycle}) }
	return m
}

func (b *booking) finish(m *monitor.Monitor) {
	b.stats = m.AssertionStats()
	b.violations = m.Violations()
}

// checkPacked runs the lanes packed on p, forcing the lanes named in forces,
// and requires for every lane that RunPacked observing that lane alone books
// exactly what a scalar Monitor attached to the interpreter books on it
// (forced the same way), and that the returned masks hold the lane exactly
// for the assertions the scalar monitor saw violated. Observing every lane at
// once must sum the per-lane counts.
func checkPacked(t testing.TB, p *simc.BatchProgram, suite []*assertion.Assertion, lanes []sim.Stimulus, forces map[int]laneForce) {
	t.Helper()
	d := p.Design()
	ps, err := p.Pack(lanes)
	if err != nil {
		t.Fatal(err)
	}
	bm := simc.NewBatchMachine(p)
	for l, f := range forces {
		if err := bm.SetForce(l, f.sig, f.val); err != nil {
			t.Fatal(err)
		}
	}
	bt, err := bm.RunPacked(ps)
	if err != nil {
		t.Fatal(err)
	}
	var all booking
	allMon := newBooked(t, d, suite, &all)
	allFired := allMon.RunPacked(bt, ^uint64(0))
	all.finish(allMon)
	sum := make([]monitor.Stats, len(suite))
	for l, stim := range lanes {
		var want booking
		scalar := newBooked(t, d, suite, &want)
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := forces[l]; ok {
			if err := s.Force(f.sig, f.val); err != nil {
				t.Fatal(err)
			}
		}
		s.Observe(scalar.Observe)
		if _, err := s.Run(stim); err != nil {
			t.Fatal(err)
		}
		want.finish(scalar)

		var got booking
		packed := newBooked(t, d, suite, &got)
		fired := packed.RunPacked(bt, 1<<uint(l))
		got.finish(packed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s lane %d (%d cycles, force %v): packed booking differs from the scalar replay\npacked %+v\nscalar %+v",
				d.Name, l, len(stim), forces[l], got, want)
		}
		for ai, st := range want.stats {
			sum[ai].Activations += st.Activations
			sum[ai].Violations += st.Violations
			if violated := st.Violations > 0; fired[ai]>>uint(l)&1 == 1 != violated || allFired[ai]>>uint(l)&1 == 1 != violated {
				t.Fatalf("%s lane %d assertion %d: fired masks %#x / %#x, scalar violations %d",
					d.Name, l, ai, fired[ai], allFired[ai], st.Violations)
			}
		}
	}
	if !reflect.DeepEqual(all.stats, sum) {
		t.Fatalf("%s: observing all %d lanes counts %v, the lanes sum to %v", d.Name, len(lanes), all.stats, sum)
	}
	for ai, m := range allFired {
		if m&^bt.Live(0) != 0 {
			t.Fatalf("%s assertion %d fired in lanes %#x, none of which ran", d.Name, ai, m&^bt.Live(0))
		}
	}
}

// TestPackedMonitorMatchesScalar runs every bundled design's mined suite on
// 1, some and 64 ragged lanes (empty lanes included), a third of them
// stuck-at forced on a consequent signal, and requires RunPacked to book
// each lane exactly as the scalar Monitor does on the interpreter.
func TestPackedMonitorMatchesScalar(t *testing.T) {
	for _, b := range designs.All() {
		d, suite := minedSuite(t, b.Name)
		if len(suite) == 0 {
			t.Fatalf("%s: nothing mined", b.Name)
		}
		var forceable []string
		seen := map[string]bool{}
		for _, a := range suite {
			if s := a.Consequent.Signal; !seen[s] && len(forceable) < 3 {
				seen[s] = true
				forceable = append(forceable, s)
			}
		}
		p, err := simc.CompileBatch(d, simc.BatchOptions{Forceable: forceable})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(b.Name))))
		for _, nl := range []int{1, 2 + rng.Intn(simc.MaxLanes-2), simc.MaxLanes} {
			lanes := make([]sim.Stimulus, nl)
			forces := map[int]laneForce{}
			for l := range lanes {
				n := rng.Intn(40)
				if l == 1 {
					n = 0
				}
				lanes[l] = stimgen.Random(d, n, rng.Int63(), 2)
				if l%3 == 2 {
					forces[l] = laneForce{sig: forceable[rng.Intn(len(forceable))], val: rng.Uint64()}
				}
			}
			checkPacked(t, p, suite, lanes, forces)
		}
	}
}

// TestMonitorAntecedentAfterConsequent pins the window of an assertion
// whose antecedent is later than its consequent: X rst=1 -> rst=1 on
// rst = 0,1,0,1 is violated in windows 0 and 2, on both evaluators.
func TestMonitorAntecedentAfterConsequent(t *testing.T) {
	b, err := designs.Get("arbiter2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	suite := []*assertion.Assertion{{
		Output:     "rst",
		Antecedent: []assertion.Prop{assertion.P("rst", 1, 1, 1)},
		Consequent: assertion.P("rst", 0, 1, 1),
	}}
	stim := sim.Stimulus{{"rst": 0}, {"rst": 1}, {"rst": 0}, {"rst": 1}}
	want := []monitor.Violation{{Index: 0, Cycle: 0}, {Index: 0, Cycle: 2}}
	m, err := monitor.New(d, suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunSuite([]sim.Stimulus{stim}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Violations(), want) || m.AssertionStats()[0] != (monitor.Stats{Activations: 2, Violations: 2}) {
		t.Errorf("scalar: violations %v stats %+v, want %v and 2/2", m.Violations(), m.AssertionStats()[0], want)
	}
	p, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.Pack([]sim.Stimulus{stim})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := simc.NewBatchMachine(p).RunPacked(ps)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := monitor.New(d, suite)
	if err != nil {
		t.Fatal(err)
	}
	if fired := pm.RunPacked(bt, 1); fired[0] != 1 || !reflect.DeepEqual(pm.Violations(), want) {
		t.Errorf("packed: fired %#x violations %v, want lane 0 and %v", fired[0], pm.Violations(), want)
	}
}

// TestMonitorRejectsNegativeOffset: a proposition before the window start
// (a corrupt or hand-edited corpus line can carry one) is an error, not an
// index panic at run time.
func TestMonitorRejectsNegativeOffset(t *testing.T) {
	d, _ := rtl.ElaborateSource(`module m(input clk, a, output reg q); always @(posedge clk) q <= a; endmodule`)
	bad := &assertion.Assertion{
		Output:     "q",
		Antecedent: []assertion.Prop{assertion.P("a", -1, 1, 1)},
		Consequent: assertion.P("q", 1, 1, 1),
	}
	if _, err := monitor.New(d, []*assertion.Assertion{bad}); err == nil {
		t.Error("negative antecedent offset accepted")
	}
	bad.Antecedent[0].Offset, bad.Consequent.Offset = 0, -2
	if _, err := monitor.New(d, []*assertion.Assertion{bad}); err == nil {
		t.Error("negative consequent offset accepted")
	}
}

// randomSuite draws n assertions over d's non-clock signals: offsets 0..3
// (antecedents after their consequent included), single bits at and past the
// width, whole-signal values with bits above the width. The first assertion
// always has an antecedent two cycles after its consequent.
func randomSuite(rng *rand.Rand, d *rtl.Design, n int) []*assertion.Assertion {
	var sigs []*rtl.Signal
	for _, s := range d.Signals {
		if s.Name != d.Clock {
			sigs = append(sigs, s)
		}
	}
	prop := func(offset int) assertion.Prop {
		s := sigs[rng.Intn(len(sigs))]
		if rng.Intn(3) == 0 {
			return assertion.PBit(s.Name, rng.Intn(s.Width+2), offset, uint64(rng.Intn(2)))
		}
		return assertion.P(s.Name, offset, rng.Uint64()&rtl.Mask(s.Width+1), s.Width)
	}
	out := make([]*assertion.Assertion, n)
	for i := range out {
		a := &assertion.Assertion{Consequent: prop(rng.Intn(4))}
		for k := rng.Intn(4); k > 0; k-- {
			a.Antecedent = append(a.Antecedent, prop(rng.Intn(4)))
		}
		if i == 0 {
			a.Consequent.Offset = 0
			a.Antecedent = append(a.Antecedent, prop(2))
		}
		a.Output = a.Consequent.Signal
		out[i] = a
	}
	return out
}

// rawWidthDesign has a register whose stored value keeps the carry of its
// next-state adder above its 2-bit width (the truncating slice is stripped),
// so its trace column has a raw bit that the monitor's width mask must hide.
func rawWidthDesign(t testing.TB) *rtl.Design {
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

// FuzzPackedMonitor lets the fuzz bytes pick a design (the bundled ones and
// rawWidthDesign), a random suite (seeded from the bytes), a lane count
// (1..64), ragged per-lane lengths (0 included), every input bit and which
// lanes are stuck-at forced; RunPacked must book every lane exactly as the
// scalar Monitor does on the interpreter. Run it with
//
//	go test -run '^$' -fuzz FuzzPackedMonitor -fuzztime 30s -parallel 2 ./internal/monitor
func FuzzPackedMonitor(f *testing.F) {
	ds := []*rtl.Design{rawWidthDesign(f)}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			f.Fatal(err)
		}
		ds = append(ds, d)
	}
	progs := make([]*simc.BatchProgram, len(ds))
	for i, d := range ds {
		var err error
		var names []string
		for _, s := range d.Signals {
			if s.Name != d.Clock {
				names = append(names, s.Name)
			}
		}
		if progs[i], err = simc.CompileBatch(d, simc.BatchOptions{Forceable: names}); err != nil {
			f.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := range ds {
		seed := make([]byte, 4+rng.Intn(200))
		rng.Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	full := make([]byte, 4+simc.MaxLanes+512)
	rng.Read(full)
	full[0], full[1], full[4] = 0, simc.MaxLanes-1, 0 // 64 lanes, lane 0 empty
	f.Add(full)
	f.Add([]byte{1, 0, 9, 0}) // one lane, no cycles

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		p := progs[int(data[0])%len(progs)]
		d := p.Design()
		nl := 1 + int(data[1])%simc.MaxLanes
		suite := randomSuite(rand.New(rand.NewSource(int64(data[2])<<8|int64(data[3]))), d, 1+int(data[2])%24)
		lens, bitsIn := data[4:], data[4:]
		if len(lens) > nl {
			lens, bitsIn = lens[:nl], bitsIn[nl:]
		} else {
			bitsIn = nil
		}
		pos := 0
		next := func(w int) uint64 {
			var v uint64
			for k := 0; k < w; k, pos = k+1, pos+1 {
				if pos/8 < len(bitsIn) {
					v |= uint64(bitsIn[pos/8]>>uint(pos%8)&1) << uint(k)
				}
			}
			return v
		}
		lanes := make([]sim.Stimulus, nl)
		forces := map[int]laneForce{}
		for l := range lanes {
			n := 0
			if l < len(lens) {
				n = int(lens[l]) % 33
				if lens[l]&0x80 != 0 {
					forceable := p.Forceable()
					forces[l] = laneForce{sig: forceable[int(lens[l])%len(forceable)], val: next(64)}
				}
			}
			lanes[l] = make(sim.Stimulus, n)
			for c := range lanes[l] {
				iv := sim.InputVec{}
				for _, in := range d.Inputs() {
					iv[in.Name] = next(in.Width)
				}
				lanes[l][c] = iv
			}
		}
		checkPacked(t, p, suite, lanes, forces)
	})
}

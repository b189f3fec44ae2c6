package simc_test

import (
	"math/rand"
	"strings"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

// TestPointWordsMatchEval requires every compiled coverage point word to
// hold, in each live lane's bit, rtl.Eval of the point's expression on that
// lane's row (bit 0), over every bundled design and the raw-width design,
// with ragged lanes. A program compiled without Points runs the same lanes
// to the same columns.
func TestPointWordsMatchEval(t *testing.T) {
	ds := []*rtl.Design{rawWidthDesign(t)}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	rng := rand.New(rand.NewSource(29))
	for _, d := range ds {
		p, err := simc.CompileBatch(d, simc.BatchOptions{Points: true})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		plain, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]sim.Stimulus, 1+rng.Intn(simc.MaxLanes))
		for l := range lanes {
			lanes[l] = stimgen.Random(d, rng.Intn(30), rng.Int63(), 2)
		}
		ps, err := p.Pack(lanes)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := simc.NewBatchMachine(p).RunPacked(ps)
		if err != nil {
			t.Fatal(err)
		}
		plainTraces, err := simc.NewBatchMachine(plain).RunBatch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		for l := range lanes {
			tr, err := bt.Lane(l)
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, plainTraces[l], tr, d.Name+" lane with point words")
			env := &sim.RowEnv{Trace: tr}
			for c, row := range tr.Values {
				env.Row = row
				for i, pt := range d.Cover.Points {
					want := rtl.Eval(pt.Expr, env) & 1
					if got := bt.Point(i, c) >> uint(l) & 1; got != want {
						t.Fatalf("%s lane %d cycle %d point %d (%s): word bit %d, Eval %d", d.Name, l, c, i, pt, got, want)
					}
				}
			}
		}
	}
}

// TestPointNeedsPointsOption requires BatchTrace.Point on a program
// compiled without BatchOptions.Points, or past the compiled points, to
// panic with a message naming the option instead of reading a neighbouring
// word of the row.
func TestPointNeedsPointsOption(t *testing.T) {
	b, err := designs.Get("b06")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	lanes := []sim.Stimulus{stimgen.Random(d, 4, 1, 2)}
	for _, tc := range []struct {
		points bool
		i      int
	}{{false, 0}, {false, -1}, {true, len(d.Cover.Points)}, {true, -1}} {
		p, err := simc.CompileBatch(d, simc.BatchOptions{Points: tc.points})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := p.Pack(lanes)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := simc.NewBatchMachine(p).RunPacked(ps)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "BatchOptions.Points") {
					t.Errorf("Points %v, Point(%d, 0): panic %q, want one naming BatchOptions.Points", tc.points, tc.i, msg)
				}
			}()
			w := bt.Point(tc.i, 0)
			t.Errorf("Points %v: Point(%d, 0) returned %#x", tc.points, tc.i, w)
		}()
	}
}

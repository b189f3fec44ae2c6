package stimgen

import (
	"math/rand"
	"reflect"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// focusedLanesRef is the map-building focused-fuzz generator the packed draw
// replaced, kept verbatim as the reference for the random stream.
func focusedLanesRef(d *rtl.Design, focus []*rtl.Signal, lanes, cycles int, seed int64, resetCycles int) []sim.Stimulus {
	inCone := map[string]bool{}
	for _, s := range focus {
		inCone[s.Name] = true
	}
	ins := d.Inputs()
	out := make([]sim.Stimulus, lanes)
	for l := range out {
		rng := rand.New(rand.NewSource(seed + int64(l)))
		stim := make(sim.Stimulus, 0, cycles)
		for c := 0; c < cycles; c++ {
			iv := sim.InputVec{}
			for _, in := range ins {
				if inCone[in.Name] {
					iv[in.Name] = rng.Uint64() & rtl.Mask(in.Width)
				} else {
					iv[in.Name] = 0
				}
			}
			for _, rname := range []string{"rst", "reset"} {
				if _, ok := iv[rname]; !ok {
					continue
				}
				if c < resetCycles {
					iv[rname] = 1
				} else if inCone[rname] && rng.Intn(16) == 0 {
					iv[rname] = 1
				} else {
					iv[rname] = 0
				}
			}
			stim = append(stim, iv)
		}
		out[l] = stim
	}
	return out
}

// bothResetsSrc has an rst and a reset input, so the draw order of the two
// reset draws is pinned too.
const bothResetsSrc = `
module both(input clk, rst, reset, input [5:0] a, input b, output reg [5:0] q);
  always @(posedge clk)
    if (rst) q <= 0;
    else if (reset) q <= 6'd1;
    else if (b) q <= q + a;
endmodule`

// TestFocusDrawMatchesReference pins the focused-fuzz stream: for random
// seeds and cone sets, FocusedLanes, every materialised lane prefix, and the
// lanes drawn straight into packed rows all equal the reference generator.
func TestFocusDrawMatchesReference(t *testing.T) {
	ds := []*rtl.Design{mustElab(t, bothResetsSrc)}
	for _, b := range designs.All() {
		d, err := b.Design()
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	rng := rand.New(rand.NewSource(17))
	for _, d := range ds {
		p, err := simc.CompileBatch(d, simc.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bm := simc.NewBatchMachine(p)
		r := rand.New(rand.NewSource(0))
		for trial := 0; trial < 4; trial++ {
			var focus []*rtl.Signal
			for _, in := range d.Inputs() {
				if trial == 3 || rng.Intn(2) == 0 {
					focus = append(focus, in)
				}
			}
			lanes, cycles := 1+rng.Intn(simc.MaxLanes), 1+rng.Intn(48)
			seed, resetCycles := rng.Int63n(1<<40), rng.Intn(4)
			want := focusedLanesRef(d, focus, lanes, cycles, seed, resetCycles)
			if got := FocusedLanes(d, focus, lanes, cycles, seed, resetCycles); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: FocusedLanes differs from the reference stream", d.Name)
			}
			fd := newFocusDraw(d, focus)
			for k := 0; k < 4; k++ {
				l, n := rng.Intn(lanes), 1+rng.Intn(cycles)
				if got := fd.lane(r, seed+int64(l), n, resetCycles); !reflect.DeepEqual(got, want[l][:n]) {
					t.Fatalf("%s: lane %d prefix %d differs from the reference", d.Name, l, n)
				}
			}
			ps, err := fd.packed(p, r, lanes, cycles, seed, resetCycles)
			if err != nil {
				t.Fatal(err)
			}
			gotT, err := bm.RunPacked(ps)
			if err != nil {
				t.Fatal(err)
			}
			wantT, err := bm.RunBatch(want)
			if err != nil {
				t.Fatal(err)
			}
			for l := range want {
				tr, err := gotT.Lane(l)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr.Values, wantT[l].Values) {
					t.Fatalf("%s: packed lane %d runs differently from the packed reference", d.Name, l)
				}
			}
		}
	}
}

package holes

import (
	"math/bits"
	"math/rand"
	"testing"

	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// packedUniverse is every hole of an empty collector (all seven kinds) plus
// holes no collector emits: FSM values with bits above the register width
// (they never match) and toggle bits at or past the signal width (they never
// toggle).
func packedUniverse(d *rtl.Design) []*Hole {
	hs := FromCollector(coverage.New(d))
	for _, r := range d.Registers() {
		if r.Width < 64 {
			over := uint64(1) << uint(r.Width)
			hs = append(hs,
				&Hole{Kind: FSMState, Reg: r, To: over},
				&Hole{Kind: FSMState, Reg: r, To: over | 1},
				&Hole{Kind: FSMArc, Reg: r, From: over, To: 0},
				&Hole{Kind: FSMArc, Reg: r, From: 0, To: over | 1},
			)
		}
		hs = append(hs,
			&Hole{Kind: FSMState, Reg: r, To: 0},
			&Hole{Kind: FSMArc, Reg: r, From: 0, To: 1},
			&Hole{Kind: ToggleRise, Sig: r, Bit: r.Width},
			&Hole{Kind: ToggleFall, Sig: r, Bit: r.Width + 3},
		)
	}
	return hs
}

// checkHitMask runs the lanes packed and requires, for every hole and lane,
// that the first cycle whose HitMask holds the lane equals Hole.Hit on that
// lane's transposed trace, and that restricting among restricts the mask.
func checkHitMask(t *testing.T, p *simc.BatchProgram, hs []*Hole, lanes []sim.Stimulus, among uint64) {
	t.Helper()
	ps, err := p.Pack(lanes)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := simc.NewBatchMachine(p).RunPacked(ps)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*sim.Trace, len(lanes))
	for l := range lanes {
		if traces[l], err = bt.Lane(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hs {
		first := make([]int, len(lanes))
		for l := range first {
			first[l] = -1
		}
		for c := 0; c < bt.Cycles()+1; c++ {
			m := h.HitMask(bt, c, ^uint64(0))
			if m&^bt.Live(c) != 0 {
				t.Fatalf("%s: cycle %d mask %#x holds lanes not live (%#x)", h.Key(), c, m, bt.Live(c))
			}
			if got := h.HitMask(bt, c, among); got != m&among {
				t.Fatalf("%s: cycle %d among %#x gives %#x, want %#x", h.Key(), c, among, got, m&among)
			}
			for ; m != 0; m &= m - 1 {
				if l := bits.TrailingZeros64(m); first[l] < 0 {
					first[l] = c
				}
			}
		}
		for l, tr := range traces {
			if want := h.Hit(tr); first[l] != want {
				t.Fatalf("%s lane %d (len %d): packed first hit %d, Hit %d", h.Key(), l, len(lanes[l]), first[l], want)
			}
		}
	}
}

// rawWidthDesign has a register whose stored value keeps the carry of its
// next-state adder above its 2-bit width (the truncating slice is stripped),
// so its trace column has a raw bit that Hit's width mask must hide.
func rawWidthDesign(t *testing.T) *rtl.Design {
	t.Helper()
	d := mustDesign(t, `
module raw(input clk, input [3:0] a, b, output [1:0] y, output z);
  reg [1:0] y;
  assign z = y[1];
  always @(posedge clk) y <= a + b;
endmodule`)
	y := d.MustSignal("y")
	if sl, ok := d.Next[y].(*rtl.Slice); ok {
		d.Next[y] = sl.X
	}
	return d
}

func TestHitMaskMatchesHitAllDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
		hs := packedUniverse(d)
		for trial := 0; trial < 2; trial++ {
			nl := 1 + rng.Intn(simc.MaxLanes)
			if trial == 1 {
				nl = simc.MaxLanes
			}
			lanes := make([]sim.Stimulus, nl)
			for l := range lanes {
				lanes[l] = randomStim(d, 1+rng.Intn(40), rng.Int63(), 2)
			}
			checkHitMask(t, p, hs, lanes, rng.Uint64())
		}
	}
}

// FuzzHitMaskMatchesHit lets the fuzz bytes pick a bundled design, a lane
// count (1..64), ragged per-lane lengths (0 included) and every input bit;
// for every hole of the design's universe and every lane, the first cycle
// whose packed HitMask holds the lane must equal Hole.Hit on that lane's
// trace. Run it with
//
//	go test -run '^$' -fuzz FuzzHitMaskMatchesHit -fuzztime 30s -parallel 2 ./internal/holes
func FuzzHitMaskMatchesHit(f *testing.F) {
	all := designs.All()
	ds := make([]*rtl.Design, len(all))
	progs := make([]*simc.BatchProgram, len(all))
	universes := make([][]*Hole, len(all))
	for i, b := range all {
		d, err := b.Design()
		if err != nil {
			f.Fatal(err)
		}
		if progs[i], err = simc.CompileBatch(d, simc.BatchOptions{}); err != nil {
			f.Fatal(err)
		}
		ds[i], universes[i] = d, packedUniverse(d)
	}
	rng := rand.New(rand.NewSource(5))
	for i := range all {
		seed := make([]byte, 2+rng.Intn(200))
		rng.Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	full := make([]byte, 2+simc.MaxLanes+512)
	rng.Read(full)
	full[0], full[1], full[5] = 0, simc.MaxLanes-1, 0 // 64 lanes, lane 3 empty
	f.Add(full)
	f.Add([]byte{1, 0, 0}) // one empty lane

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		i := int(data[0]) % len(ds)
		d := ds[i]
		nl := 1 + int(data[1])%simc.MaxLanes
		lens, bitsIn := data[2:], data[2:]
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
		for l := range lanes {
			n := 0
			if l < len(lens) {
				n = int(lens[l]) % 33
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
		checkHitMask(t, progs[i], universes[i], lanes, next(64))
	})
}

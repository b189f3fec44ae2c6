package simc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/stimgen"
)

// equalTraces requires row-for-row, column-for-column equality, reporting the
// first divergence in full.
func equalTraces(t *testing.T, want, got *sim.Trace, what string) {
	t.Helper()
	if want.Cycles() != got.Cycles() {
		t.Fatalf("%s: cycle count %d vs interpreter %d", what, got.Cycles(), want.Cycles())
	}
	if len(want.Signals) != len(got.Signals) {
		t.Fatalf("%s: column count %d vs interpreter %d", what, len(got.Signals), len(want.Signals))
	}
	for j := range want.Signals {
		if want.Signals[j] != got.Signals[j] {
			t.Fatalf("%s: column %d is %s vs interpreter %s", what, j, got.Signals[j].Name, want.Signals[j].Name)
		}
	}
	for c := range want.Values {
		for j := range want.Values[c] {
			if want.Values[c][j] != got.Values[c][j] {
				t.Fatalf("%s: cycle %d signal %s: got %#x want %#x",
					what, c, want.Signals[j].Name, got.Values[c][j], want.Values[c][j])
			}
		}
	}
}

// TestScalarDifferentialAllDesigns drives single-stimulus runs — one lane of
// the batch machine, the path compiled mining and rtlsim take — and the
// interpreter with identical randomized and directed stimulus over every
// bundled design.
func TestScalarDifferentialAllDesigns(t *testing.T) {
	for _, b := range designs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			d, err := b.Design()
			if err != nil {
				t.Fatal(err)
			}
			p, err := simc.CompileBatch(d, simc.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m := simc.NewBatchMachine(p)
			s, err := sim.New(d)
			if err != nil {
				t.Fatal(err)
			}
			run := func(stim sim.Stimulus, what string) {
				want, err := s.Run(stim)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.RunBatch([]sim.Stimulus{stim})
				if err != nil {
					t.Fatal(err)
				}
				equalTraces(t, want, got[0], what)
			}
			for _, seed := range []int64{1, 7, 42} {
				run(stimgen.Random(d, 200, seed, 2), fmt.Sprintf("lane 0 seed %d", seed))
			}
			if dir := b.Directed; dir != nil {
				run(dir(), "lane 0 directed")
			}
		})
	}
}

// FuzzBatchMatchesInterpreter lets the fuzz bytes pick a bundled design, a
// lane count (1..64), ragged per-lane lengths (0 included) and every input
// bit; each lane's trace must equal the interpreter's row for row. Zero-valued
// inputs are left out of their vectors, so the unassigned-input path is
// exercised too. Run it with
//
//	go test -run '^$' -fuzz FuzzBatchMatchesInterpreter -fuzztime 30s -parallel 2 ./internal/simc
func FuzzBatchMatchesInterpreter(f *testing.F) {
	all := designs.All()
	ds := make([]*rtl.Design, len(all))
	progs := make([]*simc.BatchProgram, len(all))
	for i, b := range all {
		d, err := b.Design()
		if err != nil {
			f.Fatal(err)
		}
		if progs[i], err = simc.CompileBatch(d, simc.BatchOptions{}); err != nil {
			f.Fatal(err)
		}
		ds[i] = d
	}
	rng := rand.New(rand.NewSource(3))
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
	f.Add([]byte{1, 0, 0})  // one empty lane
	f.Add([]byte{2, 0, 16}) // one lane of all-zero inputs

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		i := int(data[0]) % len(ds)
		d := ds[i]
		nl := 1 + int(data[1])%simc.MaxLanes
		lens, bits := data[2:], data[2:]
		if len(lens) > nl {
			lens, bits = lens[:nl], bits[nl:]
		} else {
			bits = nil
		}
		pos := 0
		next := func(w int) uint64 {
			var v uint64
			for k := 0; k < w; k, pos = k+1, pos+1 {
				if pos/8 < len(bits) {
					v |= uint64(bits[pos/8]>>uint(pos%8)&1) << uint(k)
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
					if v := next(in.Width); v != 0 {
						iv[in.Name] = v
					}
				}
				lanes[l][c] = iv
			}
		}
		got, err := simc.NewBatchMachine(progs[i]).RunBatch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		for l, stim := range lanes {
			want, err := s.Run(stim)
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, want, got[l], fmt.Sprintf("%s lane %d of %d", d.Name, l, nl))
		}
	})
}

// TestBatchStepNoAllocs pins the batch engine's zero-allocation run:
// re-running a packed stimulus on a warm machine reuses the machine's trace
// storage and allocates nothing, neither per run nor per cycle.
func TestBatchStepNoAllocs(t *testing.T) {
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
	packed, err := p.Pack(stimgen.RandomLanes(d, 64, 100, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	m := simc.NewBatchMachine(p)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.RunPacked(packed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunPacked allocates %v per run over 100 cycles on a warm machine, want 0", allocs)
	}
}

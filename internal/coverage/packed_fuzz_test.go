package coverage

import (
	"math/rand"
	"reflect"
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// FuzzPackedCollectorMatchesObserve lets the fuzz bytes pick a bundled
// design, a suite of 1..160 stimuli (so up to three 64-lane chunks), ragged
// lengths (0 included), every input bit, and a split of the suite into two
// RunSuiteCompiled calls. The packed collector's State (every point
// polarity, toggle edge, FSM state and arc, and the cycle count) must equal
// the interpreter collector's after RunSuite on the whole suite. Run it with
//
//	go test -run '^$' -fuzz FuzzPackedCollectorMatchesObserve -fuzztime 30s -parallel 2 ./internal/coverage
func FuzzPackedCollectorMatchesObserve(f *testing.F) {
	all := designs.All()
	ds := make([]*rtl.Design, len(all))
	for i, b := range all {
		d, err := b.Design()
		if err != nil {
			f.Fatal(err)
		}
		ds[i] = d
	}
	rng := rand.New(rand.NewSource(7))
	for i := range all {
		seed := make([]byte, 3+rng.Intn(300))
		rng.Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	long := make([]byte, 3+150+2000) // 151 stimuli: three chunks
	rng.Read(long)
	long[0], long[1], long[2] = 8, 150, 70
	f.Add(long)
	for i := range all {
		f.Add([]byte{byte(i), 1, 1, 1, 1}) // two one-cycle stimuli, one per call: no transition
	}
	f.Add([]byte{3, 0, 0})     // one stimulus, no cycles
	f.Add([]byte{5, 64, 64})   // 65 empty stimuli, split after the first chunk
	f.Add([]byte{11, 63, 200}) // 64 empty stimuli, one call

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		d := ds[int(data[0])%len(ds)]
		n := 1 + int(data[1])%160
		split := int(data[2]) % (n + 1)
		lens, bitsIn := data[3:], data[3:]
		if len(lens) > n {
			lens, bitsIn = lens[:n], bitsIn[n:]
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
		suite := make([]sim.Stimulus, n)
		for l := range suite {
			cycles := 0
			if l < len(lens) {
				cycles = int(lens[l]) % 33
			}
			suite[l] = make(sim.Stimulus, cycles)
			for c := range suite[l] {
				iv := sim.InputVec{}
				for _, in := range d.Inputs() {
					iv[in.Name] = next(in.Width)
				}
				suite[l][c] = iv
			}
		}
		want := New(d)
		if err := want.RunSuite(suite); err != nil {
			t.Fatal(err)
		}
		got := New(d)
		for _, part := range [][]sim.Stimulus{suite[:split], suite[split:]} {
			if err := got.RunSuiteCompiled(part); err != nil {
				t.Fatal(err)
			}
		}
		if ws, gs := want.State(), got.State(); !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s, %d stimuli split at %d: packed collector state differs from Observe's\nObserve: %+v\npacked:  %+v", d.Name, n, split, ws, gs)
		}
	})
}

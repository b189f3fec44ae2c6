package rtl_test

import (
	"testing"

	"goldmine/internal/designs"
	"goldmine/internal/rtl"
)

// FuzzElaborateSource feeds mutated Verilog to the parser and elaborator,
// seeded with the bundled designs' sources: every input must come back as a
// design or an error, never a panic, and every design's signal IDs must be
// their positions in Signals. Run it with
//
//	go test -run '^$' -fuzz FuzzElaborateSource -fuzztime 30s -parallel 2 ./internal/rtl
func FuzzElaborateSource(f *testing.F) {
	for _, b := range designs.All() {
		f.Add(b.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := rtl.ElaborateSource(src)
		if (d == nil) == (err == nil) {
			t.Fatalf("ElaborateSource returned design %v with error %v", d != nil, err)
		}
		if d == nil {
			return
		}
		for i, s := range d.Signals {
			if s.ID != i {
				t.Fatalf("signal %s at position %d has ID %d", s.Name, i, s.ID)
			}
		}
	})
}

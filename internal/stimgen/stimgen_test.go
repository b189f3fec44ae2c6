package stimgen

import (
	"testing"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

const src = `
module m(input clk, rst, input a, input [3:0] d, output reg [3:0] q);
  always @(posedge clk) if (rst) q <= 0; else if (a) q <= d;
endmodule`

func design(t *testing.T) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRandomReproducible(t *testing.T) {
	d := design(t)
	s1 := Random(d, 50, 42, 2)
	s2 := Random(d, 50, 42, 2)
	if len(s1) != 50 {
		t.Fatalf("cycles %d", len(s1))
	}
	for c := range s1 {
		for k, v := range s1[c] {
			if s2[c][k] != v {
				t.Fatalf("seeds diverge at cycle %d key %s", c, k)
			}
		}
	}
	s3 := Random(d, 50, 43, 2)
	same := true
	for c := range s1 {
		for k, v := range s1[c] {
			if s3[c][k] != v {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical stimulus")
	}
}

func TestRandomResetPrefix(t *testing.T) {
	d := design(t)
	s := Random(d, 10, 1, 3)
	for c := 0; c < 3; c++ {
		if s[c]["rst"] != 1 {
			t.Errorf("cycle %d rst=%d want 1", c, s[c]["rst"])
		}
	}
}

func TestRandomRespectsWidths(t *testing.T) {
	d := design(t)
	s := Random(d, 100, 5, 0)
	for c, iv := range s {
		if iv["a"] > 1 {
			t.Fatalf("cycle %d: a=%d exceeds width", c, iv["a"])
		}
		if iv["d"] > 15 {
			t.Fatalf("cycle %d: d=%d exceeds width", c, iv["d"])
		}
	}
	if _, err := sim.Simulate(d, s); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustive(t *testing.T) {
	d := design(t)
	s := Exhaustive(d, 20)
	// rst(1) + a(1) + d(4) = 6 bits -> 64 combinations.
	if len(s) != 64 {
		t.Fatalf("exhaustive cycles %d want 64", len(s))
	}
	seen := map[uint64]bool{}
	for _, iv := range s {
		key := iv["rst"] | iv["a"]<<1 | iv["d"]<<2
		if seen[key] {
			t.Fatalf("duplicate combination %d", key)
		}
		seen[key] = true
	}
	if got := Exhaustive(d, 3); got != nil {
		t.Error("over-budget exhaustive should return nil")
	}
}

func TestRepeat(t *testing.T) {
	a := sim.Stimulus{{"a": 0}, {"a": 1}}
	r := Repeat(a, 3)
	if len(r) != 6 || r[2]["a"] != 0 || r[5]["a"] != 1 {
		t.Fatalf("repeat wrong: %v", r)
	}
	// Mutating the result must not affect the source.
	r[0]["a"] = 9
	if a[0]["a"] != 0 {
		t.Error("repeat aliases source")
	}
}

func TestRandomLanes(t *testing.T) {
	d := design(t)
	lanes := RandomLanes(d, 8, 40, 100, 2)
	if len(lanes) != 8 {
		t.Fatalf("lanes %d", len(lanes))
	}
	for l, got := range lanes {
		want := Random(d, 40, 100+int64(l), 2)
		if len(got) != len(want) {
			t.Fatalf("lane %d length %d vs %d", l, len(got), len(want))
		}
		for c := range want {
			for name, v := range want[c] {
				if got[c][name] != v {
					t.Fatalf("lane %d cycle %d %s: %d vs %d", l, c, name, got[c][name], v)
				}
			}
		}
	}
}

func TestSeedStimulus(t *testing.T) {
	d := design(t)
	directed := func() sim.Stimulus { return sim.Stimulus{{"a": 1}} }
	for _, tc := range []struct {
		spec     string
		directed func() sim.Stimulus
		want     int // stimulus length; -1 = rejected
	}{
		{"", directed, 1},
		{"directed", directed, 1},
		{"directed", nil, 0},
		{"none", directed, 0},
		{"random:0", directed, 0},
		{"random:16", nil, 16},
		{"random:-5", directed, -1},
		{"random:", directed, -1},
		{"random:x", directed, -1},
		{"fuzz", directed, -1},
	} {
		stim, err := SeedStimulus(d, tc.directed, tc.spec)
		if check := CheckSeed(tc.spec); (check == nil) != (err == nil) {
			t.Errorf("%q: CheckSeed %v disagrees with SeedStimulus %v", tc.spec, check, err)
		}
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("%q: accepted", tc.spec)
		case tc.want >= 0 && err != nil:
			t.Errorf("%q: %v", tc.spec, err)
		case tc.want >= 0 && len(stim) != tc.want:
			t.Errorf("%q: %d cycles, want %d", tc.spec, len(stim), tc.want)
		}
	}
}

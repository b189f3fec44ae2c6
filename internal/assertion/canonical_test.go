package assertion

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Edge cases of the canonical identity and subsumption APIs — the contracts
// the corpus layer's cross-run dedup and cluster collapse are built on.

func TestCanonicalKeyCommutedAntecedents(t *testing.T) {
	a := &Assertion{
		Output:     "gnt0",
		Antecedent: []Prop{P("req0", 0, 1, 1), P("req1", 1, 0, 1)},
		Consequent: P("gnt0", 2, 0, 1),
	}
	b := &Assertion{
		Output:     "gnt0",
		Antecedent: []Prop{P("req1", 1, 0, 1), P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 2, 0, 1),
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("commuted antecedents diverge:\n%q\n%q", a.CanonicalKey(), b.CanonicalKey())
	}
	// Key (order-dependent) must still see them as different orderings.
	if a.Key() == b.Key() {
		t.Errorf("order-dependent Key collapsed commuted antecedents: %q", a.Key())
	}
	// CanonicalKey must not have normalized the assertion as a side effect.
	if b.Antecedent[0].Signal != "req1" {
		t.Errorf("CanonicalKey mutated the antecedent order")
	}
}

func TestCanonicalKeyBitVsWholeSignalNoCollision(t *testing.T) {
	// A whole multi-bit signal equal to 1 and bit 0 of the same signal equal
	// to 1 are different constraints (the former pins the upper bits to 0) —
	// their keys must not collide.
	whole := &Assertion{
		Antecedent: []Prop{P("state", 0, 1, 2)},
		Consequent: P("out", 1, 1, 1),
	}
	bit := &Assertion{
		Antecedent: []Prop{PBit("state", 0, 0, 1)},
		Consequent: P("out", 1, 1, 1),
	}
	if whole.CanonicalKey() == bit.CanonicalKey() {
		t.Errorf("sig@0=1 and sig[0]@0=1 collide: %q", whole.CanonicalKey())
	}
}

func TestCanonicalKeyDuplicatePropsDeduped(t *testing.T) {
	once := &Assertion{
		Antecedent: []Prop{P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 1, 1, 1),
	}
	twice := &Assertion{
		Antecedent: []Prop{P("req0", 0, 1, 1), P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 1, 1, 1),
	}
	if once.CanonicalKey() != twice.CanonicalKey() {
		t.Errorf("duplicated proposition changes the key:\n%q\n%q",
			once.CanonicalKey(), twice.CanonicalKey())
	}
}

func TestSubsumesSelf(t *testing.T) {
	a := paperA5()
	if !Subsumes(a, a) {
		t.Errorf("assertion does not subsume itself")
	}
}

func TestSubsumesBitVsWholeSignal(t *testing.T) {
	// Antecedent {state==1} (whole 2-bit signal) is NOT a subset of
	// {state[0]} even though both mention "state" with value 1: propositions
	// compare by rendered name, which distinguishes the bit-select.
	whole := &Assertion{
		Antecedent: []Prop{P("state", 0, 1, 2)},
		Consequent: P("out", 1, 1, 1),
	}
	bit := &Assertion{
		Antecedent: []Prop{PBit("state", 0, 0, 1)},
		Consequent: P("out", 1, 1, 1),
	}
	if Subsumes(whole, bit) || Subsumes(bit, whole) {
		t.Errorf("whole-signal and bit-select propositions treated as equal")
	}
}

func TestSubsumesCommutedSuperset(t *testing.T) {
	// A one-prop assertion subsumes a two-prop one regardless of the
	// superset's antecedent order, and never the other way around.
	gen := &Assertion{
		Antecedent: []Prop{P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 2, 0, 1),
	}
	for _, spec := range []*Assertion{
		{
			Antecedent: []Prop{P("req0", 0, 1, 1), P("req1", 1, 1, 1)},
			Consequent: P("gnt0", 2, 0, 1),
		},
		{
			Antecedent: []Prop{P("req1", 1, 1, 1), P("req0", 0, 1, 1)},
			Consequent: P("gnt0", 2, 0, 1),
		},
	} {
		if !Subsumes(gen, spec) {
			t.Errorf("general %s does not subsume specific %s", gen, spec)
		}
		if Subsumes(spec, gen) {
			t.Errorf("specific %s subsumes general %s", spec, gen)
		}
	}
}

func TestSubsumesDifferentConsequentValue(t *testing.T) {
	a := &Assertion{
		Antecedent: []Prop{P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 1, 1, 1),
	}
	b := &Assertion{
		Antecedent: []Prop{P("req0", 0, 1, 1)},
		Consequent: P("gnt0", 1, 0, 1),
	}
	if Subsumes(a, b) || Subsumes(b, a) {
		t.Errorf("assertions with opposite consequent values subsume each other")
	}
}

// The fmt-based renderings Name, Key, CanonicalKey and Normalize were first
// written with. They are the oracle TestCanonicalKeyMatchesFormat pins the
// strconv-append implementations against.

func fmtName(p Prop) string {
	if p.Bit >= 0 {
		return fmt.Sprintf("%s[%d]", p.Signal, p.Bit)
	}
	return p.Signal
}

func fmtKey(a *Assertion) string {
	b := &strings.Builder{}
	for _, p := range a.Antecedent {
		fmt.Fprintf(b, "%s@%d=%d&", fmtName(p), p.Offset, p.Value)
	}
	fmt.Fprintf(b, ">%s@%d=%d", fmtName(a.Consequent), a.Consequent.Offset, a.Consequent.Value)
	return b.String()
}

func fmtCanonicalKey(a *Assertion) string {
	parts := make([]string, 0, len(a.Antecedent))
	for _, p := range a.Antecedent {
		parts = append(parts, fmt.Sprintf("%s@%d=%d", fmtName(p), p.Offset, p.Value))
	}
	sort.Strings(parts)
	b := &strings.Builder{}
	prev := ""
	for _, s := range parts {
		if s == prev {
			continue
		}
		b.WriteString(s)
		b.WriteByte('&')
		prev = s
	}
	fmt.Fprintf(b, ">%s@%d=%d", fmtName(a.Consequent), a.Consequent.Offset, a.Consequent.Value)
	return b.String()
}

func fmtNormalize(a *Assertion) {
	sort.Slice(a.Antecedent, func(i, j int) bool {
		if a.Antecedent[i].Offset != a.Antecedent[j].Offset {
			return a.Antecedent[i].Offset < a.Antecedent[j].Offset
		}
		return fmtName(a.Antecedent[i]) < fmtName(a.Antecedent[j])
	})
}

// TestCanonicalKeyMatchesFormat compares Name, Key, CanonicalKey and the
// permutation Normalize leaves against the fmt oracle on random assertions
// built to hit the orderings a hand-written renderer could get wrong: bit
// indices on both sides of 10 (a[10] sorts before a[2]), signals that are
// prefixes of each other, names containing '[' or '@' or non-ASCII bytes,
// negative offsets and values beyond int64, duplicated and contradictory
// propositions, and antecedents long enough for sort.Slice to leave
// insertion sort.
func TestCanonicalKeyMatchesFormat(t *testing.T) {
	signals := []string{"a", "ab", "a[1]", "a@2", "b", "state", "stat", "é", "éa", "", "x\x00y", "s[", "s]"}
	bits := []int{-1, -1, 0, 1, 2, 9, 10, 11, 23, 100, 1 << 40}
	offsets := []int{-3, -1, 0, 1, 2, 10, 64}
	values := []uint64{0, 1, 2, 9, 10, 1<<63 + 5, ^uint64(0)}
	r := rand.New(rand.NewSource(1))
	prop := func() Prop {
		return Prop{
			Signal: signals[r.Intn(len(signals))],
			Bit:    bits[r.Intn(len(bits))],
			Offset: offsets[r.Intn(len(offsets))],
			Value:  values[r.Intn(len(values))],
			Width:  1 + r.Intn(8),
		}
	}
	for it := 0; it < 3000; it++ {
		a := &Assertion{Consequent: prop()}
		for n := r.Intn(20); n > 0; n-- {
			switch p := prop(); r.Intn(4) {
			case 0: // duplicate an earlier proposition
				if len(a.Antecedent) > 0 {
					p = a.Antecedent[r.Intn(len(a.Antecedent))]
				}
				a.Antecedent = append(a.Antecedent, p)
			case 1: // contradict one: same variable and offset, other value
				if len(a.Antecedent) > 0 {
					p = a.Antecedent[r.Intn(len(a.Antecedent))]
					p.Value ^= 1
				}
				a.Antecedent = append(a.Antecedent, p)
			default:
				a.Antecedent = append(a.Antecedent, p)
			}
		}
		for _, p := range append([]Prop{a.Consequent}, a.Antecedent...) {
			if got, want := p.Name(), fmtName(p); got != want {
				t.Fatalf("Name(%+v) = %q, want %q", p, got, want)
			}
		}
		if got, want := a.Key(), fmtKey(a); got != want {
			t.Fatalf("Key:\n got %q\nwant %q", got, want)
		}
		if got, want := a.CanonicalKey(), fmtCanonicalKey(a); got != want {
			t.Fatalf("CanonicalKey:\n got %q\nwant %q", got, want)
		}
		b := &Assertion{Antecedent: append([]Prop(nil), a.Antecedent...)}
		a.Normalize()
		fmtNormalize(b)
		if !reflect.DeepEqual(a.Antecedent, b.Antecedent) {
			t.Fatalf("Normalize order differs:\n got %+v\nwant %+v", a.Antecedent, b.Antecedent)
		}
		// Normalizing a normalized antecedent again, ties included.
		a.Normalize()
		fmtNormalize(b)
		if !reflect.DeepEqual(a.Antecedent, b.Antecedent) {
			t.Fatalf("Normalize order differs on a sorted antecedent:\n got %+v\nwant %+v", a.Antecedent, b.Antecedent)
		}
	}
}

// TestCanonicalKeyAllocs pins the point of the strconv rendering: a typical
// assertion's key costs one allocation, the returned string.
func TestCanonicalKeyAllocs(t *testing.T) {
	a := paperA5()
	a.Antecedent = append(a.Antecedent, PBit("state", 12, 0, 1))
	if n := testing.AllocsPerRun(100, func() { _ = a.CanonicalKey() }); n != 1 {
		t.Errorf("CanonicalKey allocates %.0f times, want 1", n)
	}
}

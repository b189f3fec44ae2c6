// Package assertion defines the propositional/temporal assertions produced by
// the GoldMine miner: implications whose antecedent is a conjunction of
// (signal, cycle-offset, value) propositions and whose consequent is a single
// proposition about a design output. Assertions print in LTL, SVA and PSL
// syntax, matching the notations used in the paper.
package assertion

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Prop is one proposition: signal (or one bit of it) equals value at a cycle
// offset relative to the start of the mining window (offset 0 = earliest
// cycle). Bit < 0 refers to the whole signal; Bit >= 0 selects a single bit,
// which is how the miner expresses propositions about multi-bit signals.
type Prop struct {
	Signal string
	Bit    int
	Offset int
	Value  uint64
	Width  int
}

// MaxOffset bounds a proposition's cycle offset, so a window spans at most
// MaxOffset+1 cycles. Mined windows sit far below it (core.Options.Build
// rejects a longer one); the bound stops an assertion read from a corpus
// file from sizing a monitor's window buffers by a corrupt offset.
const MaxOffset = 64

// P builds a whole-signal proposition (Bit = -1).
func P(signal string, offset int, value uint64, width int) Prop {
	return Prop{Signal: signal, Bit: -1, Offset: offset, Value: value, Width: width}
}

// PBit builds a single-bit proposition.
func PBit(signal string, bit, offset int, value uint64) Prop {
	return Prop{Signal: signal, Bit: bit, Offset: offset, Value: value & 1, Width: 1}
}

// Name renders the referenced variable, e.g. "req0" or "state[1]".
func (p Prop) Name() string {
	if p.Bit < 0 {
		return p.Signal
	}
	var buf [64]byte
	return string(p.appendName(buf[:0]))
}

// appendName appends Name's rendering to b.
func (p Prop) appendName(b []byte) []byte {
	b = append(b, p.Signal...)
	if p.Bit >= 0 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.Bit), 10)
		b = append(b, ']')
	}
	return b
}

// AppendAtom appends p as name@offset=value, the unit Key and CanonicalKey
// are built from.
func (p Prop) AppendAtom(b []byte) []byte {
	b = p.appendName(b)
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(p.Offset), 10)
	b = append(b, '=')
	return strconv.AppendUint(b, p.Value, 10)
}

// nameLess reports whether p.Name() < q.Name() without building either
// string: names whose signals differ before the shorter one ends compare as
// their signals, the rest are rendered into stack buffers.
func nameLess(p, q Prop) bool {
	n := min(len(p.Signal), len(q.Signal))
	if p.Signal[:n] != q.Signal[:n] || p.Bit < 0 && q.Bit < 0 {
		return p.Signal < q.Signal
	}
	var pb, qb [64]byte
	return string(p.appendName(pb[:0])) < string(q.appendName(qb[:0]))
}

// String renders the proposition with X^offset temporal prefixes (LTL).
func (p Prop) String() string {
	body := p.body()
	return strings.Repeat("X", p.Offset) + body
}

func (p Prop) body() string {
	if p.Width <= 1 || p.Bit >= 0 {
		if p.Value == 0 {
			return "!" + p.Name()
		}
		return p.Name()
	}
	return fmt.Sprintf("%s==%d", p.Signal, p.Value)
}

// Assertion is an implication ant_1 ∧ ... ∧ ant_n => consequent.
type Assertion struct {
	// Output is the design output the assertion describes.
	Output string
	// Antecedent propositions sorted by (offset, signal).
	Antecedent []Prop
	// Consequent is the output proposition.
	Consequent Prop
	// Window is the mining window length w (antecedent offsets span 0..w).
	Window int

	// Confidence and Support are the statistical metrics from the miner:
	// Confidence is the fraction of supporting rows that satisfy the
	// consequent (candidate assertions require 1.0); Support is the number
	// of trace rows matching the antecedent.
	Confidence float64
	Support    int
}

// CheckOffsets reports the first proposition whose offset lies outside
// 0..MaxOffset.
func (a *Assertion) CheckOffsets() error {
	check := func(p Prop) error {
		if p.Offset < 0 || p.Offset > MaxOffset {
			return fmt.Errorf("assertion: %s at offset %d outside 0..%d", p.Name(), p.Offset, MaxOffset)
		}
		return nil
	}
	for _, p := range a.Antecedent {
		if err := check(p); err != nil {
			return err
		}
	}
	return check(a.Consequent)
}

// Normalize sorts the antecedent deterministically, by (offset, name).
func (a *Assertion) Normalize() {
	ps := a.Antecedent
	less := func(p, q Prop) bool {
		if p.Offset != q.Offset {
			return p.Offset < q.Offset
		}
		return nameLess(p, q)
	}
	// A strictly increasing antecedent (no ties) is already in the one order
	// any sort would leave, which is how a corpus journal stores it.
	for i := 1; i < len(ps); i++ {
		if !less(ps[i-1], ps[i]) {
			sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
			return
		}
	}
}

// Key is a canonical identity string used for deduplication.
func (a *Assertion) Key() string {
	var buf [256]byte
	b := buf[:0]
	for _, p := range a.Antecedent {
		b = append(p.AppendAtom(b), '&')
	}
	b = append(b, '>')
	return string(a.Consequent.AppendAtom(b))
}

// CanonicalKey is the order-independent semantic identity of the assertion:
// the antecedent propositions sorted and deduplicated, then the consequent,
// each rendered as name@offset=value. Unlike Key it does not depend on the
// stored antecedent order (and never mutates the assertion), so two
// assertions mined by different outputs' refinement runs — or regenerated
// across iterations — compare equal exactly when the model checker would
// treat them identically. Statistical metadata (Confidence, Support) and the
// mining window are deliberately excluded: they do not affect the verdict.
// The verdict cache keys on this plus a design/options fingerprint.
//
// The atoms are rendered once into one buffer and sorted as byte ranges of
// it; only the returned string is allocated for a typical assertion.
func (a *Assertion) CanonicalKey() string {
	type span struct{ lo, hi int }
	var (
		atomBuf [256]byte
		spanBuf [16]span
		keyBuf  [256]byte
	)
	atoms, spans := atomBuf[:0], spanBuf[:0]
	for _, p := range a.Antecedent {
		lo := len(atoms)
		atoms = p.AppendAtom(atoms)
		spans = append(spans, span{lo, len(atoms)})
	}
	slices.SortFunc(spans, func(x, y span) int {
		return bytes.Compare(atoms[x.lo:x.hi], atoms[y.lo:y.hi])
	})
	b := keyBuf[:0]
	var prev []byte
	for i, sp := range spans {
		s := atoms[sp.lo:sp.hi]
		if i > 0 && bytes.Equal(s, prev) {
			continue // duplicated proposition: same constraint
		}
		b = append(append(b, s...), '&')
		prev = s
	}
	b = append(b, '>')
	return string(a.Consequent.AppendAtom(b))
}

// String renders the assertion in LTL notation, e.g.
// "req0 && X(!req1) ==> XX(!gnt0)".
func (a *Assertion) String() string {
	if len(a.Antecedent) == 0 {
		return "true ==> " + ltlProp(a.Consequent)
	}
	parts := make([]string, len(a.Antecedent))
	for i, p := range a.Antecedent {
		parts[i] = ltlProp(p)
	}
	return strings.Join(parts, " && ") + " ==> " + ltlProp(a.Consequent)
}

func ltlProp(p Prop) string {
	if p.Offset == 0 {
		return p.body()
	}
	return strings.Repeat("X", p.Offset) + "(" + p.body() + ")"
}

// SVA renders the assertion as a SystemVerilog concurrent assertion body.
func (a *Assertion) SVA(clock string) string {
	if clock == "" {
		clock = "clk"
	}
	byOffset := a.propsByOffset()
	var seq []string
	last := 0
	first := true
	for _, grp := range byOffset {
		gap := grp.offset - last
		var conj []string
		for _, p := range grp.props {
			conj = append(conj, svaProp(p))
		}
		term := strings.Join(conj, " && ")
		if first {
			seq = append(seq, term)
			first = false
		} else {
			seq = append(seq, fmt.Sprintf("##%d %s", gap, term))
		}
		last = grp.offset
	}
	ant := strings.Join(seq, " ")
	if ant == "" {
		ant = "1'b1"
	}
	gap := a.Consequent.Offset - last
	cons := svaProp(a.Consequent)
	var imp string
	if gap == 0 {
		imp = fmt.Sprintf("%s |-> %s", ant, cons)
	} else {
		imp = fmt.Sprintf("%s |-> ##%d %s", ant, gap, cons)
	}
	return fmt.Sprintf("assert property (@(posedge %s) %s);", clock, imp)
}

// PSL renders the assertion in PSL syntax.
func (a *Assertion) PSL(clock string) string {
	if clock == "" {
		clock = "clk"
	}
	body := a.String()
	body = strings.ReplaceAll(body, "==>", "->")
	return fmt.Sprintf("assert always (%s) @(posedge %s);", body, clock)
}

func svaProp(p Prop) string {
	if p.Width <= 1 || p.Bit >= 0 {
		if p.Value == 0 {
			return "!" + p.Name()
		}
		return p.Name()
	}
	return fmt.Sprintf("(%s == %d)", p.Signal, p.Value)
}

type offsetGroup struct {
	offset int
	props  []Prop
}

func (a *Assertion) propsByOffset() []offsetGroup {
	m := map[int][]Prop{}
	for _, p := range a.Antecedent {
		m[p.Offset] = append(m[p.Offset], p)
	}
	var offs []int
	for o := range m {
		offs = append(offs, o)
	}
	sort.Ints(offs)
	var out []offsetGroup
	for _, o := range offs {
		ps := m[o]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Name() < ps[j].Name() })
		out = append(out, offsetGroup{offset: o, props: ps})
	}
	return out
}

// Signals returns the sorted, deduplicated names of the design signals the
// assertion references (antecedent and consequent). The corpus layer seeds
// cone-of-influence cluster signatures from this set.
func (a *Assertion) Signals() []string {
	seen := map[string]bool{a.Consequent.Signal: true}
	out := []string{a.Consequent.Signal}
	for _, p := range a.Antecedent {
		if !seen[p.Signal] {
			seen[p.Signal] = true
			out = append(out, p.Signal)
		}
	}
	sort.Strings(out)
	return out
}

// Depth returns the number of antecedent propositions (the decision-tree
// depth of the leaf that produced this assertion). The paper's input-space
// coverage of a true assertion is 1/2^Depth.
func (a *Assertion) Depth() int { return len(a.Antecedent) }

// InputSpaceFraction is the fraction of the (windowed) input space the
// assertion covers: 1/2^depth, per Section 7.1 of the paper.
func (a *Assertion) InputSpaceFraction() float64 {
	f := 1.0
	for i := 0; i < a.Depth(); i++ {
		f /= 2
	}
	return f
}

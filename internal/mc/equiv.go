package mc

import (
	"fmt"
	"math/bits"
	"sort"

	"goldmine/internal/cnf"
	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// EquivStatus is the verdict of an equivalence check.
type EquivStatus int

// Equivalence verdicts.
const (
	// EquivEqual: the designs are proven equivalent (exact for
	// combinational designs and for sequential designs within the explicit
	// engine's limits).
	EquivEqual EquivStatus = iota
	// EquivDifferent: a distinguishing input sequence was found.
	EquivDifferent
	// EquivBounded: no difference up to the bound; no proof either.
	EquivBounded
)

func (s EquivStatus) String() string {
	switch s {
	case EquivEqual:
		return "equivalent"
	case EquivDifferent:
		return "different"
	default:
		return "bounded-equivalent"
	}
}

// EquivResult reports an equivalence check outcome.
type EquivResult struct {
	Status EquivStatus
	// Ctx is a distinguishing input sequence from reset (when different).
	Ctx sim.Stimulus
	// Output names the first differing output (when different).
	Output string
	// Depth is the bound used (frames for BMC, states for explicit).
	Depth int
}

// Equivalent checks whether two designs with identical input and output
// interfaces implement the same function: a SAT miter for combinational
// designs (exact), joint explicit-state exploration when the combined state
// fits the explicit engine, and bounded miter unrolling otherwise.
func Equivalent(a, b *rtl.Design, opts Options) (*EquivResult, error) {
	if err := sameInterface(a, b); err != nil {
		return nil, err
	}
	if len(a.Registers()) == 0 && len(b.Registers()) == 0 {
		return miterCheck(a, b, 1, true)
	}
	if a.StateBits()+b.StateBits() <= opts.MaxStateBits &&
		a.InputBits() <= opts.MaxInputBits {
		return explicitEquiv(a, b)
	}
	depth := opts.MaxBMCDepth
	if depth < 2 {
		depth = 2
	}
	return miterCheck(a, b, depth, false)
}

// sameInterface verifies matching inputs and outputs (names and widths).
func sameInterface(a, b *rtl.Design) error {
	sig := func(d *rtl.Design, kind rtl.SigKind) map[string]int {
		out := map[string]int{}
		for _, s := range d.Signals {
			if s.Kind == kind && s.Name != d.Clock {
				out[s.Name] = s.Width
			}
		}
		return out
	}
	for _, kind := range []rtl.SigKind{rtl.SigInput, rtl.SigOutput} {
		ma, mb := sig(a, kind), sig(b, kind)
		if len(ma) != len(mb) {
			return fmt.Errorf("equiv: %v count differs (%d vs %d)", kind, len(ma), len(mb))
		}
		for n, w := range ma {
			if mb[n] != w {
				return fmt.Errorf("equiv: %v %q differs (%d vs %d bits)", kind, n, w, mb[n])
			}
		}
	}
	return nil
}

// miterCheck unrolls both designs over shared input variables and searches
// for a frame where any output differs. The first frame, output, bit and
// polarity that can differ are properties of the formula; the
// distinguishing sequence is made one too: the lexicographically smallest
// input sequence (frame-major, inputs by name, bits LSB first) under which
// that bit differs, found by probe solves as canonicalStim finds a mining
// counterexample. It therefore does not depend on the solver's heuristics.
func miterCheck(a, b *rtl.Design, depth int, exact bool) (*EquivResult, error) {
	s := sat.New()
	ua := cnf.NewUnroller(s, a)
	ub := cnf.NewUnroller(s, b)
	outs := outputNames(a)
	ins := a.Inputs()
	sort.Slice(ins, func(i, j int) bool { return ins[i].Name < ins[j].Name })

	for t := 0; t < depth; t++ {
		ua.AddFrame()
		ub.AddFrame()
		if t == 0 {
			ua.InitZero()
			ub.InitZero()
		}
		// Tie the frame's inputs together.
		for _, in := range a.Inputs() {
			va, err := ua.SignalVec(t, in)
			if err != nil {
				return nil, err
			}
			vb, err := ub.SignalVec(t, b.Signal(in.Name))
			if err != nil {
				return nil, err
			}
			for i := range va {
				s.AddClause(va[i].Neg(), vb[i])
				s.AddClause(va[i], vb[i].Neg())
			}
		}
		// Try to differentiate each output in this frame.
		for _, name := range outs {
			oa, err := ua.SignalVec(t, a.Signal(name))
			if err != nil {
				return nil, err
			}
			ob, err := ub.SignalVec(t, b.Signal(name))
			if err != nil {
				return nil, err
			}
			for bit := range oa {
				// Assume oa[bit] != ob[bit]: SAT in two polarities.
				for _, pol := range []bool{false, true} {
					la, lb := oa[bit], ob[bit].Neg()
					if pol {
						la, lb = oa[bit].Neg(), ob[bit]
					}
					if s.Solve(la, lb) == sat.Sat {
						ctx := lexMinInputs(ua, []sat.Lit{la, lb}, ins, t+1, func(probe []sat.Lit) sat.Status {
							return s.Solve(probe...)
						})
						return &EquivResult{
							Status: EquivDifferent, Ctx: ctx,
							Output: name, Depth: t + 1,
						}, nil
					}
				}
			}
		}
	}
	if exact {
		return &EquivResult{Status: EquivEqual, Depth: depth}, nil
	}
	return &EquivResult{Status: EquivBounded, Depth: depth}, nil
}

// explicitEquiv explores the product machine exhaustively: a product state
// is a's registers followed by b's, expanded over every input combination 64
// per word on the batch engine. Lanes are consumed in combination order, so
// the product-state order, the first distinguishing input and the reported
// output are those of a walk over one combination at a time.
func explicitEquiv(a, b *rtl.Design) (*EquivResult, error) {
	pa, err := simc.CompileBatch(a, simc.BatchOptions{})
	if err != nil {
		return nil, err
	}
	pb, err := simc.CompileBatch(b, simc.BatchOptions{})
	if err != nil {
		return nil, err
	}
	ma, mb := simc.NewBatchMachine(pa), simc.NewBatchMachine(pb)
	outs := outputNames(a)
	oa := make([]*rtl.Signal, len(outs))
	ob := make([]*rtl.Signal, len(outs))
	for i, n := range outs {
		oa[i] = a.Signal(n)
		ob[i] = b.Signal(n)
	}
	insA, insB := a.Inputs(), b.Inputs()
	regsA, regsB := a.Registers(), b.Registers()

	// Inputs pair up by name (sameInterface matched names and widths), not
	// by declaration order: bInSrc maps each of b's packed input words to
	// the word of a's same-named input bit.
	offA := map[string]int{}
	off := 0
	for _, in := range insA {
		offA[in.Name] = off
		off += in.Width
	}
	var bInSrc []int
	for _, in := range insB {
		for bit := 0; bit < in.Width; bit++ {
			bInSrc = append(bInSrc, offA[in.Name]+bit)
		}
	}

	x := newBFS(append(append([]*rtl.Signal(nil), regsA...), regsB...), insA, len(regsA)+len(regsB))
	r := x.r
	inA := make([]uint64, a.InputBits())
	inB := make([]uint64, len(bInSrc))
	total := uint64(1) << uint(len(inA))
	diffs := make([]uint64, len(outs))
	var wa, wb []uint64
	for qi := 0; qi < len(r.order); qi++ {
		cur := r.order[qi]
		st := r.states[cur]
		for base := uint64(0); base < total; base += simc.MaxLanes {
			lanes := wordLanes(base, total)
			ma.LoadState(laneMask(lanes), st[:len(regsA)])
			mb.LoadState(laneMask(lanes), st[len(regsA):])
			for j := range inA {
				inA[j] = enumWord(base, j)
			}
			for j, src := range bInSrc {
				inB[j] = inA[src]
			}
			ma.Settle(inA)
			mb.Settle(inB)
			// Outputs must agree on every transition: the first lane with a
			// differing output bit is the first distinguishing combination.
			differ := uint64(0)
			for i := range outs {
				wa, wb = ma.Bits(oa[i], wa), mb.Bits(ob[i], wb)
				diffs[i] = 0
				for k := 0; k < oa[i].Width; k++ {
					diffs[i] |= simc.MatchLanes(wa, oa[i], k, 1) ^ simc.MatchLanes(wb, ob[i], k, 1)
				}
				differ |= diffs[i]
			}
			first := lanes
			if differ &= laneMask(lanes); differ != 0 {
				first = bits.TrailingZeros64(differ)
			}
			ma.Latch()
			mb.Latch()
			x.latched(ma, regsA, 0)
			x.latched(mb, regsB, len(regsA))
			for l := 0; l < first; l++ {
				x.visit(l, cur, base+uint64(l))
			}
			if first == lanes {
				continue
			}
			bad := ""
			for i := range outs {
				if diffs[i]>>uint(first)&1 == 1 {
					bad = outs[i]
					break
				}
			}
			// The distinguishing sequence: reach cur, then apply the input.
			var ctx sim.Stimulus
			for _, iv := range append(r.pathTo(cur), inputValues(insA, base+uint64(first))) {
				ctx = append(ctx, inputVec(insA, iv))
			}
			return &EquivResult{Status: EquivDifferent, Ctx: ctx, Output: bad, Depth: len(r.states)}, nil
		}
	}
	return &EquivResult{Status: EquivEqual, Depth: len(r.states)}, nil
}

func outputNames(d *rtl.Design) []string {
	var out []string
	for _, s := range d.Outputs() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

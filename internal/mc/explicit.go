package mc

import (
	"fmt"
	"math/bits"
	"sort"

	"goldmine/internal/assertion"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
)

// ---------------------------------------------------------------------------
// Explicit-state engine
//
// Both enumerations — the reachability BFS over (state, input combination)
// and the property check over (state, window sequence) — run on the simc
// 64-lane batch engine: 64 consecutive items of the enumeration are simulated
// per word operation. Lane l of a word is item base+l, and every result is
// consumed in lane order, so the state order, predecessor edges, first
// counterexample and work accounting are exactly those of a walk that
// simulates one item at a time.
// ---------------------------------------------------------------------------

// stateKey packs raw register values into a comparable key.
type stateKey string

type reachability struct {
	regs    []*rtl.Signal
	inputs  []*rtl.Signal
	states  map[stateKey][]uint64
	pred    map[stateKey]predEdge // BFS tree for path reconstruction
	order   []stateKey            // BFS order
	initial stateKey
}

type predEdge struct {
	from stateKey
	in   []uint64
	ok   bool
}

func key(state []uint64) stateKey { return stateKey(appendKey(nil, state)) }

// appendKey appends the key bytes of state to b.
func appendKey(b []byte, state []uint64) []byte {
	for _, v := range state {
		for sh := 0; sh < 64; sh += 8 {
			b = append(b, byte(v>>uint(sh)))
		}
	}
	return b
}

// laneMask selects lanes 0..n-1.
func laneMask(n int) uint64 {
	if n >= simc.MaxLanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// enumWord is the lane word of bit j of the enumeration index over a word of
// 64 consecutive indices starting at base, a multiple of 64: the low six bits
// count the lane, the rest are constant across the word.
func enumWord(base uint64, j int) uint64 {
	if j < 6 {
		s := uint(1) << uint(j)
		return ^uint64(0) / (1<<s + 1) << s
	}
	if base>>uint(j)&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// inputValues unpacks input combination n into per-input values: the inputs'
// bits are concatenated in order, least significant first.
func inputValues(ins []*rtl.Signal, n uint64) []uint64 {
	out := make([]uint64, len(ins))
	for i, in := range ins {
		out[i] = n & rtl.Mask(in.Width)
		n >>= uint(in.Width)
	}
	return out
}

// getMachine hands out a pooled batch machine, or builds one on the checker's
// 64-lane program (compiled on first use, immutable and shared by every
// check after). Machines are single-goroutine; the pool gives each
// concurrent check its own. Return it to c.machPool.
func (c *Checker) getMachine() (*simc.BatchMachine, error) {
	if v := c.machPool.Get(); v != nil {
		return v.(*simc.BatchMachine), nil
	}
	c.progOnce.Do(func() {
		c.prog, c.progErr = simc.CompileBatch(c.d, simc.BatchOptions{})
	})
	if c.progErr != nil {
		return nil, c.progErr
	}
	return simc.NewBatchMachine(c.prog), nil
}

// wordLanes is the number of the total enumeration items in the word that
// starts at base.
func wordLanes(base, total uint64) int {
	if total-base < simc.MaxLanes {
		return int(total - base)
	}
	return simc.MaxLanes
}

// bfs builds a reachability set breadth-first on the batch engine. A state is
// a vector of raw register values — for a product machine, both designs'
// registers back to back — and every state is expanded over all input
// combinations, 64 per word. r.order doubles as the queue.
type bfs struct {
	r     *reachability
	words [][]uint64 // the registers' bit words after the batch latched
	next  []uint64
	kb    []byte
}

func newBFS(regs, inputs []*rtl.Signal, nregs int) *bfs {
	init := make([]uint64, nregs)
	ik := key(init)
	return &bfs{
		r: &reachability{regs: regs, inputs: inputs, initial: ik, order: []stateKey{ik},
			states: map[stateKey][]uint64{ik: init}, pred: map[stateKey]predEdge{}},
		words: make([][]uint64, nregs),
		next:  make([]uint64, nregs),
	}
}

// latched reads the latched bit words of regs from m into words[at:].
func (x *bfs) latched(m *simc.BatchMachine, regs []*rtl.Signal, at int) {
	for i, reg := range regs {
		x.words[at+i] = m.Bits(reg, x.words[at+i])
	}
}

// visit records the state latched in lane l, entered from state from under
// input combination n, unless it is already known.
func (x *bfs) visit(l int, from stateKey, n uint64) {
	for i, ws := range x.words {
		x.next[i] = simc.LaneValue(ws, l)
	}
	x.kb = appendKey(x.kb[:0], x.next)
	if _, seen := x.r.states[stateKey(x.kb)]; seen {
		return
	}
	k := stateKey(x.kb)
	x.r.states[k] = append([]uint64(nil), x.next...)
	x.r.pred[k] = predEdge{from: from, in: inputValues(x.r.inputs, n), ok: true}
	x.r.order = append(x.r.order, k)
}

// computeReach performs BFS from the all-zero reset state. A budget
// exhaustion mid-BFS leaves no partial cache behind: the next check (or the
// SAT fallback) starts clean. Concurrent callers serialize on reachMu: the
// first pays for the fixpoint out of its own budget, the rest wait on the
// lock and read the published (immutable) cache.
func (c *Checker) computeReach(b *budget) (*reachability, error) {
	c.reachMu.Lock()
	defer c.reachMu.Unlock()
	if c.reach != nil {
		return c.reach, nil
	}
	if c.explicitErr != nil {
		return nil, c.explicitErr
	}
	m, err := c.getMachine()
	if err != nil {
		c.explicitErr = err
		return nil, err
	}
	defer c.machPool.Put(m)
	regs := c.d.Registers()
	x := newBFS(regs, c.d.Inputs(), len(regs))
	r := x.r
	in := make([]uint64, c.d.InputBits())
	total := uint64(1) << uint(len(in))
	poll := b != nil && b.active()
	for qi := 0; qi < len(r.order); qi++ {
		cur := r.order[qi]
		for base := uint64(0); base < total; base += simc.MaxLanes {
			lanes := wordLanes(base, total)
			for i := 0; poll && i < lanes; i++ {
				if err := b.tick(); err != nil {
					return nil, err
				}
			}
			m.LoadState(laneMask(lanes), r.states[cur])
			for j := range in {
				in[j] = enumWord(base, j)
			}
			m.Settle(in)
			m.Latch()
			x.latched(m, regs, 0)
			for l := 0; l < lanes; l++ {
				x.visit(l, cur, base+uint64(l))
			}
		}
	}
	c.reach = r
	c.ReachBuilds++
	return r, nil
}

// pathTo reconstructs an input stimulus from reset that drives the design
// into the given reachable state.
func (r *reachability) pathTo(k stateKey) [][]uint64 {
	var rev [][]uint64
	cur := k
	for cur != r.initial {
		e := r.pred[cur]
		if !e.ok {
			break
		}
		rev = append(rev, e.in)
		cur = e.from
	}
	// Reverse.
	out := make([][]uint64, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// pinnedInputBits counts antecedent propositions that pin primary-input bits
// inside the window (each removes bits from the enumeration space).
func (c *Checker) pinnedInputBits(a *assertion.Assertion) int {
	n := 0
	for _, p := range a.Antecedent {
		sig := c.d.Signal(p.Signal)
		if sig == nil || sig.Kind != rtl.SigInput || sig.Name == c.d.Clock {
			continue
		}
		if p.Offset > a.Consequent.Offset {
			continue
		}
		if p.Bit >= 0 {
			n++
		} else {
			n += sig.Width
		}
	}
	return n
}

// rp is a pre-resolved proposition for in-simulation evaluation.
type rp struct {
	sig  *rtl.Signal
	prop assertion.Prop
	off  int
	val  uint64
}

func resolveProp(d *rtl.Design, p assertion.Prop) (rp, error) {
	sig := d.Signal(p.Signal)
	if sig == nil {
		return rp{}, fmt.Errorf("assertion references unknown signal %q", p.Signal)
	}
	want := p.Value
	if p.Bit < 0 {
		want &= rtl.Mask(sig.Width)
	} else {
		want &= 1
	}
	return rp{sig: sig, prop: p, off: p.Offset, val: want}, nil
}

// holds returns the lanes in which the settled value of p's signal satisfies
// p. buf is scratch for the signal's bit words.
func (p *rp) holds(m *simc.BatchMachine, buf *[]uint64) uint64 {
	*buf = m.Bits(p.sig, *buf)
	return simc.MatchLanes(*buf, p.sig, p.prop.Bit, p.val)
}

func (c *Checker) checkExplicit(b *budget, a *assertion.Assertion) (*Result, error) {
	r, err := c.computeReach(b)
	if err != nil {
		return nil, err
	}
	m, err := c.getMachine()
	if err != nil {
		return nil, err
	}
	defer c.machPool.Put(m)
	coff := a.Consequent.Offset
	frames := coff + 1

	// Split the antecedent: propositions on primary inputs pin bits of the
	// enumerated window; everything else is checked during simulation.
	inputIdx := make([]int, len(c.d.Signals)) // by ID: position in r.inputs + 1, 0 = not an input
	for i, in := range r.inputs {
		inputIdx[in.ID] = i + 1
	}
	fixedVal := make([][]uint64, frames)
	fixedMask := make([][]uint64, frames)
	for f := 0; f < frames; f++ {
		fixedVal[f] = make([]uint64, len(r.inputs))
		fixedMask[f] = make([]uint64, len(r.inputs))
	}
	var simProps []rp
	for _, p := range a.Antecedent {
		pr, err := resolveProp(c.d, p)
		if err != nil {
			return nil, err
		}
		ii := inputIdx[pr.sig.ID] - 1
		if ii < 0 || pr.off >= frames {
			simProps = append(simProps, pr)
			continue
		}
		if p.Bit >= 0 {
			fixedMask[pr.off][ii] |= 1 << uint(p.Bit)
			fixedVal[pr.off][ii] |= (pr.val & 1) << uint(p.Bit)
		} else {
			fixedMask[pr.off][ii] = rtl.Mask(pr.sig.Width)
			fixedVal[pr.off][ii] = pr.val
		}
	}
	cp, err := resolveProp(c.d, a.Consequent)
	if err != nil {
		return nil, err
	}

	// Free bit positions to enumerate, and the packed input words of every
	// frame: pinned bits are constant across lanes, free bit i is bit i of
	// the window sequence. Sequence bits below 6 count the lane within a
	// word, so only the higher ones change from word to word.
	type freeBit struct{ frame, input, bit, word int }
	var free []freeBit
	in := make([][]uint64, frames)
	for f := 0; f < frames; f++ {
		in[f] = make([]uint64, c.d.InputBits())
		word := 0
		for i, inp := range r.inputs {
			for bit := 0; bit < inp.Width; bit, word = bit+1, word+1 {
				if fixedMask[f][i]&(1<<uint(bit)) == 0 {
					in[f][word] = enumWord(0, len(free))
					free = append(free, freeBit{frame: f, input: i, bit: bit, word: word})
				} else if fixedVal[f][i]&(1<<uint(bit)) != 0 {
					in[f][word] = ^uint64(0)
				}
			}
		}
	}
	if len(free) > 62 {
		return nil, fmt.Errorf("explicit window too wide (%d free bits)", len(free))
	}
	seqTotal := uint64(1) << uint(len(free))

	// Items are (state in BFS order, window sequence) pairs in lexicographic
	// order, 64 per word: span lanes per state, so a word holds part of one
	// state's windows, or all the windows of several consecutive states.
	span := simc.MaxLanes
	if seqTotal < simc.MaxLanes {
		span = int(seqTotal)
	}
	perWord := simc.MaxLanes / span
	poll := b != nil && b.active()
	var sims int64
	defer func() { c.mtr.explicitSims.Add(sims) }()
	var buf []uint64
	for s0 := 0; s0 < len(r.order); s0 += perWord {
		n := len(r.order) - s0
		if n > perWord {
			n = perWord
		}
		for seq0 := uint64(0); seq0 < seqTotal; seq0 += simc.MaxLanes {
			for k := 0; k < n; k++ {
				m.LoadState(laneMask(span)<<uint(k*span), r.states[r.order[s0+k]])
			}
			for i := 6; i < len(free); i++ {
				in[free[i].frame][free[i].word] = enumWord(seq0, i)
			}
			// Simulate the window in every lane, evaluating the remaining
			// propositions as lane masks.
			lanes := n * span
			antOK := laneMask(lanes)
			var consBad uint64
			for f := 0; f < frames && antOK != 0; f++ {
				m.Settle(in[f])
				for i := range simProps {
					if simProps[i].off == f {
						antOK &= simProps[i].holds(m, &buf)
					}
				}
				if f == coff {
					consBad = ^cp.holds(m, &buf)
				} else {
					m.Latch()
				}
			}
			// Work is charged per lane, up to and including the first
			// violation, as if the items were simulated one at a time.
			viol := antOK & consBad
			units := int64(lanes)
			if viol != 0 {
				units = int64(bits.TrailingZeros64(viol)) + 1
			}
			for i := int64(1); poll && i <= units; i++ {
				if err := b.tick(); err != nil {
					sims += i
					return nil, err
				}
			}
			sims += units
			if viol == 0 {
				continue
			}
			// Violation: build the full ctx from reset.
			v := int(units) - 1
			sk, seq := r.order[s0+v/span], seq0+uint64(v%span)
			ctx := make(sim.Stimulus, 0, frames)
			for _, iv := range r.pathTo(sk) {
				ctx = append(ctx, inputVec(r.inputs, iv))
			}
			ivs := fixedVal // the window's inputs: pinned bits plus seq's free bits
			for i, fb := range free {
				if seq>>uint(i)&1 == 1 {
					ivs[fb.frame][fb.input] |= 1 << uint(fb.bit)
				}
			}
			for _, iv := range ivs {
				ctx = append(ctx, inputVec(r.inputs, iv))
			}
			return &Result{Status: StatusFalsified, Ctx: ctx, Method: "explicit", Depth: len(r.states)}, nil
		}
	}
	return &Result{Status: StatusProved, Method: "explicit", Depth: len(r.states)}, nil
}

func inputVec(ins []*rtl.Signal, vals []uint64) sim.InputVec {
	iv := sim.InputVec{}
	for i, in := range ins {
		iv[in.Name] = vals[i]
	}
	return iv
}

// ReachableStates returns the number of reachable states (explicit engine),
// computing the reachability fixpoint if needed.
func (c *Checker) ReachableStates() (int, error) {
	r, err := c.computeReach(nil)
	if err != nil {
		return 0, err
	}
	return len(r.states), nil
}

// Reachable returns a sorted list of reachable state keys rendered for
// debugging (explicit engine only).
func (c *Checker) Reachable() ([]string, error) {
	r, err := c.computeReach(nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, sk := range r.order {
		vals := r.states[sk]
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%s=%d", r.regs[i].Name, v)
		}
		sort.Strings(parts)
		out = append(out, fmt.Sprintf("%v", parts))
	}
	return out, nil
}

package simc

import (
	"fmt"
	"sort"

	"goldmine/internal/rtl"
	"goldmine/internal/sim"
)

// Batch opcodes operate on whole uint64 words: bit i of every word is lane
// i's copy of one single-bit net, so each instruction advances 64 independent
// simulations at once.
const (
	bAnd   uint8 = iota // w[dst] = w[a] & w[b]
	bOr                 // w[dst] = w[a] | w[b]
	bXor                // w[dst] = w[a] ^ w[b]
	bNot                // w[dst] = ^w[a]
	bAndN               // w[dst] = w[a] &^ w[b]
	bMux                // w[dst] = (w[a] & w[c]) | (w[b] &^ w[c])   a=T b=F c=cond
	bCopy               // w[dst] = w[a]
	bForce              // w[dst] = (w[dst] &^ w[a]) | w[b]          a=lane mask, b=masked value
)

type binstr struct {
	op      uint8
	dst     int32
	a, b, c int32
}

// Word indices 0 and 1 are the constant all-zeros / all-ones lanes.
const (
	bw0 int32 = 0
	bw1 int32 = 1
)

// wbits is a little-endian list of word indices representing a multi-bit
// value; indices past the end read as constant zero (free zero extension).
type wbits []int32

func (v wbits) get(i int) int32 {
	if i < len(v) {
		return v[i]
	}
	return bw0
}

// forceSlots are the machine-written lane-mask and per-bit value words of one
// forceable signal.
type forceSlots struct {
	sig   *rtl.Signal
	maskW int32
	valW  []int32 // sig.Width words
}

// packedInput describes where one data input's bits live in a packed
// stimulus row.
type packedInput struct {
	sig *rtl.Signal
	off int // offset into the flat input-word row
}

// inputEntry resolves a stimulus name in O(1) with the interpreter's exact
// error taxonomy preserved.
type inputEntry struct {
	slot int32 // index into BatchProgram.inputs (data inputs only)
	mask uint64
	kind uint8
}

const (
	inOK uint8 = iota
	inNonInput
	inClock
)

// sortedNextRegs returns the registers with next-state functions sorted by
// name (deterministic tape layout; order is semantically irrelevant because
// the latch is two-phase).
func sortedNextRegs(d *rtl.Design) []*rtl.Signal {
	regs := make([]*rtl.Signal, 0, len(d.Next))
	for reg := range d.Next {
		regs = append(regs, reg)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs
}

// BatchOptions configures batch compilation.
type BatchOptions struct {
	// Forceable lists signal names that may be pinned per lane with
	// BatchMachine.SetForce (stuck-at fault lanes). Forcing costs a copy plus a
	// force op per bit of each listed signal, so only listed signals are
	// forceable.
	Forceable []string
	// Points compiles every coverage point's expression
	// (rtl.CoverageInfo.Points) into the comb tape and records one word per
	// point in each trace row, read with BatchTrace.Point. It costs the
	// points' gates every cycle, so only programs whose traces are scanned
	// for coverage ask for it.
	Points bool
}

// BatchProgram is the immutable bit-blasted form of a design: every 1-bit net
// is one word (64 lanes), wider signals are little-endian word lists, and the
// comb/next tapes are AND/OR/XOR/ANDN/NOT/MUX word operations. rtl.Lower
// builds every expression from the gates of bbuild, a hash-consing builder
// with constant folding that emits a NOT only where a word must hold a
// complement.
type BatchProgram struct {
	d      *rtl.Design
	nwords int32

	comb []binstr
	next []binstr

	// sigBits holds each non-clock signal's raw stored bit words by ID (the
	// bit-blasted equivalent of the interpreter's raw value); nil for the
	// clock and for a signal not compiled yet.
	sigBits []wbits

	// Input packing: inWords is the flat list of machine-written input bit
	// words; packIdx resolves stimulus names with the interpreter's error
	// taxonomy.
	inWords []int32
	inputs  []packedInput
	packIdx map[string]inputEntry

	// Trace gather: per column of the empty trace tr (sim.NewTrace order,
	// reached through its ID→column table), the stored words to copy into
	// each packed row.
	tr        *sim.Trace
	colOff    []int32 // offset of each column's words within a packed row
	rowGather []int32 // word index per packed-row position

	// pointOff is where the coverage point words start in a packed row
	// (after every column); npoints is how many there are (0 unless
	// compiled with BatchOptions.Points).
	pointOff int32
	npoints  int

	forceable map[string]*forceSlots

	// regBits lists each register's raw stored words (extra words included)
	// in rtl.Design.Registers order, for state loads.
	regBits []wbits
}

// Design returns the compiled design.
func (p *BatchProgram) Design() *rtl.Design { return p.d }

type bkey struct {
	op      uint8
	a, b, c int32
}

// bbuild is the mutable state of one CompileBatch call.
type bbuild struct {
	p     *BatchProgram
	tape  *[]binstr
	cse   map[bkey]int32
	notOf map[int32]int32
}

func (b *bbuild) word() int32 {
	w := b.p.nwords
	b.p.nwords++
	return w
}

func (b *bbuild) words(n int) wbits {
	v := make(wbits, n)
	for i := range v {
		v[i] = b.word()
	}
	return v
}

// gate emits (or hash-cons reuses) one word operation. Callers fold constants
// before reaching here.
func (b *bbuild) gate(op uint8, a, x, c int32) int32 {
	k := bkey{op, a, x, c}
	if w, ok := b.cse[k]; ok {
		return w
	}
	w := b.word()
	*b.tape = append(*b.tape, binstr{op: op, dst: w, a: a, b: x, c: c})
	b.cse[k] = w
	return w
}

// The bits rtl.Lower passes around are word indices, or ^w (a negative
// value) for the complement of word w, which costs no instruction until a
// word has to hold it (see hold). The constants are always bw0 and bw1.

// False is the all-zeros word.
func (b *bbuild) False() int32 { return bw0 }

// True is the all-ones word.
func (b *bbuild) True() int32 { return bw1 }

// Not complements x without emitting an instruction.
func (b *bbuild) Not(x int32) int32 {
	switch x {
	case bw0:
		return bw1
	case bw1:
		return bw0
	}
	return ^x
}

// And folds a complemented operand into bAndN and two into an OR (De
// Morgan), so comparator chains emit no NOT.
func (b *bbuild) And(x, y int32) int32 {
	if x == bw0 || y == bw0 || x == b.Not(y) {
		return bw0
	}
	if x == bw1 || x == y {
		return y
	}
	if y == bw1 {
		return x
	}
	switch {
	case x >= 0 && y >= 0:
		return b.gate(bAnd, min(x, y), max(x, y), 0)
	case x < 0 && y < 0:
		return ^b.gate(bOr, min(^x, ^y), max(^x, ^y), 0)
	case x < 0:
		return b.gate(bAndN, y, ^x, 0)
	default:
		return b.gate(bAndN, x, ^y, 0)
	}
}

// Or is the complement of And of the complements: two plain words give
// bOr, a complemented one bAndN.
func (b *bbuild) Or(x, y int32) int32 {
	return b.Not(b.And(b.Not(x), b.Not(y)))
}

func (b *bbuild) Xor(x, y int32) int32 {
	switch {
	case x == y:
		return bw0
	case x == b.Not(y):
		return bw1
	case x == bw0:
		return y
	case y == bw0:
		return x
	case x == bw1:
		return b.Not(y)
	case y == bw1:
		return b.Not(x)
	}
	// A complemented operand complements the result.
	neg := (x < 0) != (y < 0)
	if x < 0 {
		x = ^x
	}
	if y < 0 {
		y = ^y
	}
	w := b.gate(bXor, min(x, y), max(x, y), 0)
	if neg {
		return ^w
	}
	return w
}

// Mux selects t where c is 1 and f where c is 0.
func (b *bbuild) Mux(c, t, f int32) int32 {
	if c == bw1 || t == f {
		return t
	}
	if c == bw0 {
		return f
	}
	if c < 0 {
		c, t, f = ^c, f, t
	}
	switch {
	case f == bw0:
		return b.And(t, c)
	case t == bw0:
		return b.And(f, b.Not(c))
	case f == bw1:
		return b.Or(t, b.Not(c))
	case t == bw1:
		return b.Or(f, c)
	case t < 0 && f < 0:
		return ^b.gate(bMux, ^t, ^f, c)
	}
	return b.gate(bMux, b.hold(t), b.hold(f), c)
}

// Ref returns sig's stored words.
func (b *bbuild) Ref(sig *rtl.Signal) ([]int32, error) {
	stored := b.p.bits(sig)
	if stored == nil {
		return nil, fmt.Errorf("simc: expression reads unknown signal %q", sig.Name)
	}
	return stored, nil
}

// hold returns a word holding bit x, emitting the NOT of a complement (once
// per word: notOf caches it both ways).
func (b *bbuild) hold(x int32) int32 {
	if x >= 0 {
		return x
	}
	if n, ok := b.notOf[^x]; ok {
		return n
	}
	n := b.gate(bNot, ^x, 0, 0)
	b.notOf[^x] = n
	b.notOf[n] = ^x
	return n
}

// expr lowers e through rtl.Lower and returns its bits in words.
func (b *bbuild) expr(e rtl.Expr) (wbits, error) {
	v, err := rtl.Lower[int32](b, e)
	if err != nil {
		return nil, err
	}
	out := make(wbits, len(v))
	for i, x := range v {
		out[i] = b.hold(x)
	}
	return out, nil
}

// CompileBatch bit-blasts d into a 64-lane program.
func CompileBatch(d *rtl.Design, opts BatchOptions) (*BatchProgram, error) {
	order, err := d.CombOrder()
	if err != nil {
		return nil, err
	}
	p := &BatchProgram{
		d:         d,
		sigBits:   make([]wbits, len(d.Signals)),
		packIdx:   make(map[string]inputEntry),
		forceable: make(map[string]*forceSlots),
	}
	b := &bbuild{p: p, cse: make(map[bkey]int32), notOf: make(map[int32]int32)}
	// Words 0 and 1 are the constant lanes.
	b.word() // bw0
	b.word() // bw1

	wantForce := make(map[string]bool, len(opts.Forceable))
	for _, n := range opts.Forceable {
		sig := d.Signal(n)
		if sig == nil {
			return nil, fmt.Errorf("simc: forceable signal %q not in design", n)
		}
		if sig.Name == d.Clock {
			return nil, fmt.Errorf("simc: cannot force clock %q", n)
		}
		wantForce[n] = true
	}

	// Machine-written storage: inputs and registers get fixed word blocks so
	// the tapes can be laid out before next-state expressions are compiled.
	for _, sig := range d.Signals {
		if sig.Name == d.Clock {
			continue
		}
		switch {
		case sig.Kind == rtl.SigInput:
			ws := b.words(sig.Width)
			p.inputs = append(p.inputs, packedInput{sig: sig, off: len(p.inWords)})
			p.packIdx[sig.Name] = inputEntry{slot: int32(len(p.inputs) - 1), mask: rtl.Mask(sig.Width), kind: inOK}
			p.inWords = append(p.inWords, ws...)
			p.sigBits[sig.ID] = ws
		case d.Next[sig] != nil:
			p.sigBits[sig.ID] = b.words(sig.Width)
		}
	}
	// Stimulus error taxonomy for non-input signals.
	for _, sig := range d.Signals {
		if _, ok := p.packIdx[sig.Name]; ok {
			continue
		}
		kind := inNonInput
		if sig.Name == d.Clock {
			kind = inClock
		}
		p.packIdx[sig.Name] = inputEntry{slot: -1, kind: kind}
	}

	// Force plumbing allocates its machine-written words up front.
	forceWords := func(sig *rtl.Signal) *forceSlots {
		fs := &forceSlots{sig: sig, maskW: b.word(), valW: b.words(sig.Width)}
		p.forceable[sig.Name] = fs
		return fs
	}
	emitForce := func(fs *forceSlots, stored wbits) {
		for i, w := range stored {
			val := bw0
			if i < len(fs.valW) {
				val = fs.valW[i]
			}
			// Forced lanes: bits within the signal width take the forced
			// value, raw bits beyond it clear to zero (the interpreter's
			// Force stores a width-masked value).
			*b.tape = append(*b.tape, binstr{op: bForce, dst: w, a: fs.maskW, b: val})
		}
	}

	// Comb tape head: pin forced inputs and registers in place before any
	// logic reads them (their storage is machine-written, so in-place force
	// is safe and every reader sees the forced lanes).
	b.tape = &p.comb
	for _, sig := range d.Signals {
		if !wantForce[sig.Name] {
			continue
		}
		if _, comb := d.Comb[sig]; comb {
			continue // handled at the signal's definition below
		}
		emitForce(forceWords(sig), p.sigBits[sig.ID])
	}

	// Combinational settle in dependency order.
	for _, sig := range order {
		v, err := b.expr(d.Comb[sig])
		if err != nil {
			return nil, err
		}
		if wantForce[sig.Name] {
			// Copy into fresh private words first: the computed words may be
			// hash-cons-shared with unrelated identical expressions, which
			// must NOT observe the forced value (the interpreter re-evaluates
			// them independently). The private block is at least the signal
			// width so a forced value can set bits the driver never produces;
			// the per-cycle copy (from constant zero where the driver has no
			// bit) also clears lanes whose force was since removed.
			n := len(v)
			if sig.Width > n {
				n = sig.Width
			}
			priv := b.words(n)
			for i := range priv {
				*b.tape = append(*b.tape, binstr{op: bCopy, dst: priv[i], a: v.get(i)})
			}
			emitForce(forceWords(sig), priv)
			v = priv
		}
		p.sigBits[sig.ID] = v
	}

	// Coverage points read the settled cycle, so they close the comb tape;
	// bit 0 of each is the point's value (rtl.Eval(expr)&1).
	var pointWords []int32
	if opts.Points {
		for _, pt := range d.Cover.Points {
			v, err := b.expr(pt.Expr)
			if err != nil {
				return nil, fmt.Errorf("simc: coverage point %d: %w", pt.ID, err)
			}
			pointWords = append(pointWords, v.get(0))
		}
	}

	// Next tape: evaluate all next-state roots, then latch. Roots that alias
	// machine-written words (a next function that is just a register or input
	// reference) are copied into scratch first so latch order cannot leak a
	// newly latched value into another register's source.
	b.tape = &p.next
	volatileWords := make(map[int32]bool)
	for _, sig := range d.Signals {
		if sig.Name == d.Clock {
			continue
		}
		if sig.Kind == rtl.SigInput || d.Next[sig] != nil {
			for _, w := range p.sigBits[sig.ID] {
				volatileWords[w] = true
			}
		}
	}
	type latchPlan struct {
		reg  *rtl.Signal
		bits wbits
	}
	var plans []latchPlan
	for _, reg := range sortedNextRegs(d) {
		v, err := b.expr(d.Next[reg])
		if err != nil {
			return nil, err
		}
		aliased := false
		for _, w := range v {
			if volatileWords[w] {
				aliased = true
				break
			}
		}
		if aliased {
			scratch := b.words(len(v))
			for i := range v {
				*b.tape = append(*b.tape, binstr{op: bCopy, dst: scratch[i], a: v[i]})
			}
			v = scratch
		}
		plans = append(plans, latchPlan{reg, v})
	}
	for _, pl := range plans {
		stored := p.sigBits[pl.reg.ID]
		// Raw next-state bits beyond the register's pre-allocated width need
		// extra persistent words (the interpreter stores the raw value).
		for len(stored) < len(pl.bits) {
			stored = append(stored, b.word())
		}
		for i, dst := range stored {
			*b.tape = append(*b.tape, binstr{op: bCopy, dst: dst, a: pl.bits.get(i)})
		}
		p.sigBits[pl.reg.ID] = stored
	}

	for _, reg := range d.Registers() {
		p.regBits = append(p.regBits, p.sigBits[reg.ID])
	}

	// Trace gather in sim.NewTrace column order, raw stored bits per column.
	p.tr = sim.NewTrace(d)
	p.colOff = make([]int32, len(p.tr.Signals)+1)
	for i, sig := range p.tr.Signals {
		p.colOff[i] = int32(len(p.rowGather))
		p.rowGather = append(p.rowGather, p.sigBits[sig.ID]...)
	}
	p.colOff[len(p.tr.Signals)] = int32(len(p.rowGather))
	p.pointOff, p.npoints = int32(len(p.rowGather)), len(pointWords)
	p.rowGather = append(p.rowGather, pointWords...)
	return p, nil
}

// bits returns sig's stored words, or nil for the clock, a signal not
// compiled yet and a signal of another design.
func (p *BatchProgram) bits(sig *rtl.Signal) wbits {
	if !p.d.Owns(sig) {
		return nil
	}
	return p.sigBits[sig.ID]
}

// Forceable returns the sorted names of lane-forceable signals.
func (p *BatchProgram) Forceable() []string {
	names := make([]string, 0, len(p.forceable))
	for n := range p.forceable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

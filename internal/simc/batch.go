package simc

import (
	"fmt"
	"math/bits"
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

// trunc masks a value to w bits — in the bit-blasted form truncation is just
// dropping words.
func (v wbits) trunc(w int) wbits {
	if len(v) > w {
		return v[:w]
	}
	return v
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
// comb/next tapes are AND/OR/XOR/NOT/MUX word operations produced by a
// hash-consing builder with constant folding.
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

func (b *bbuild) and(x, y int32) int32 {
	if x == bw0 || y == bw0 {
		return bw0
	}
	if x == bw1 {
		return y
	}
	if y == bw1 {
		return x
	}
	if x == y {
		return x
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(bAnd, x, y, 0)
}

func (b *bbuild) or(x, y int32) int32 {
	if x == bw1 || y == bw1 {
		return bw1
	}
	if x == bw0 {
		return y
	}
	if y == bw0 {
		return x
	}
	if x == y {
		return x
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(bOr, x, y, 0)
}

func (b *bbuild) xor(x, y int32) int32 {
	if x == y {
		return bw0
	}
	if x == bw0 {
		return y
	}
	if y == bw0 {
		return x
	}
	if x == bw1 {
		return b.not(y)
	}
	if y == bw1 {
		return b.not(x)
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(bXor, x, y, 0)
}

func (b *bbuild) not(x int32) int32 {
	if x == bw0 {
		return bw1
	}
	if x == bw1 {
		return bw0
	}
	if n, ok := b.notOf[x]; ok {
		return n
	}
	n := b.gate(bNot, x, 0, 0)
	b.notOf[x] = n
	b.notOf[n] = x
	return n
}

// andn computes x &^ y.
func (b *bbuild) andn(x, y int32) int32 {
	if x == bw0 || y == bw1 || x == y {
		return bw0
	}
	if y == bw0 {
		return x
	}
	if x == bw1 {
		return b.not(y)
	}
	return b.gate(bAndN, x, y, 0)
}

// mux selects tv where cond is 1, fv where cond is 0.
func (b *bbuild) mux(tv, fv, cond int32) int32 {
	if cond == bw1 || tv == fv {
		return tv
	}
	if cond == bw0 {
		return fv
	}
	if tv == bw1 && fv == bw0 {
		return cond
	}
	if tv == bw0 && fv == bw1 {
		return b.not(cond)
	}
	if fv == bw0 {
		return b.and(tv, cond)
	}
	if tv == bw0 {
		return b.andn(fv, cond)
	}
	if fv == bw1 {
		return b.or(tv, b.not(cond))
	}
	if tv == bw1 {
		return b.or(fv, cond)
	}
	return b.gate(bMux, tv, fv, cond)
}

// tree folds a list of words with a balanced reduction.
func (b *bbuild) tree(op func(int32, int32) int32, ws []int32) int32 {
	if len(ws) == 0 {
		return bw0
	}
	for len(ws) > 1 {
		var next []int32
		for i := 0; i < len(ws); i += 2 {
			if i+1 < len(ws) {
				next = append(next, op(ws[i], ws[i+1]))
			} else {
				next = append(next, ws[i])
			}
		}
		ws = next
	}
	return ws[0]
}

// redOr is 1 where the value is nonzero.
func (b *bbuild) redOr(v wbits) int32 {
	return b.tree(b.or, append([]int32(nil), v...))
}

// add computes x + y truncated to w bits (ripple carry with shared a^b).
func (b *bbuild) add(x, y wbits, w int) wbits {
	return b.addc(x, y, bw0, w)
}

func (b *bbuild) addc(x, y wbits, carry int32, w int) wbits {
	out := make(wbits, w)
	for i := 0; i < w; i++ {
		xi, yi := x.get(i), y.get(i)
		axb := b.xor(xi, yi)
		out[i] = b.xor(axb, carry)
		if i < w-1 {
			carry = b.or(b.and(xi, yi), b.and(carry, axb))
		}
	}
	return out
}

// sub computes x - y truncated to w bits (x + ^y + 1).
func (b *bbuild) sub(x, y wbits, w int) wbits {
	ny := make(wbits, w)
	for i := 0; i < w; i++ {
		ny[i] = b.not(y.get(i))
	}
	return b.addc(x, ny, bw1, w)
}

// ult is 1 where x < y over the full raw widths (borrow chain of x - y).
func (b *bbuild) ult(x, y wbits) int32 {
	n := len(x)
	if len(y) > n {
		n = len(y)
	}
	borrow := bw0
	for i := 0; i < n; i++ {
		xi, yi := x.get(i), y.get(i)
		nb := b.andn(yi, xi) // ^x & y
		eq := b.not(b.xor(xi, yi))
		borrow = b.or(nb, b.and(eq, borrow))
	}
	return borrow
}

// eq is 1 where x == y over the full raw widths.
func (b *bbuild) eq(x, y wbits) int32 {
	n := len(x)
	if len(y) > n {
		n = len(y)
	}
	if n == 0 {
		return bw1 // two zero-width constants: 0 == 0
	}
	ws := make([]int32, n)
	for i := 0; i < n; i++ {
		ws[i] = b.not(b.xor(x.get(i), y.get(i)))
	}
	return b.tree(b.and, ws)
}

// mul computes x * y truncated to w bits (shift-and-add).
func (b *bbuild) mul(x, y wbits, w int) wbits {
	acc := make(wbits, w)
	for i := range acc {
		acc[i] = bw0
	}
	for j := 0; j < w && j < len(x); j++ {
		xj := x.get(j)
		if xj == bw0 {
			continue
		}
		part := make(wbits, w)
		for i := 0; i < w; i++ {
			if i < j {
				part[i] = bw0
			} else {
				part[i] = b.and(y.get(i-j), xj)
			}
		}
		acc = b.add(acc, part, w)
	}
	return acc
}

// shl computes x << amt truncated to w bits, for a variable amount; amounts
// >= w (including the interpreter's >= 64 rule) yield zero.
func (b *bbuild) shl(x, amt wbits, w int) wbits {
	cur := make(wbits, w)
	for i := 0; i < w; i++ {
		cur[i] = x.get(i)
	}
	for k := 0; k < len(amt); k++ {
		ak := amt[k]
		if ak == bw0 {
			continue
		}
		sh := 1 << uint(k)
		if sh >= w || k >= 6 {
			// Shifting by 2^k clears every bit of a w-bit value.
			for i := range cur {
				cur[i] = b.andn(cur[i], ak)
			}
			continue
		}
		next := make(wbits, w)
		for i := 0; i < w; i++ {
			var shifted int32 = bw0
			if i >= sh {
				shifted = cur[i-sh]
			}
			next[i] = b.mux(shifted, cur[i], ak)
		}
		cur = next
	}
	return cur
}

// shr computes x >> amt truncated to w bits.
func (b *bbuild) shr(x, amt wbits, w int) wbits {
	la := len(x)
	if la == 0 {
		la = 1
	}
	cur := make(wbits, la)
	copy(cur, x)
	for k := 0; k < len(amt); k++ {
		ak := amt[k]
		if ak == bw0 {
			continue
		}
		sh := 1 << uint(k)
		if sh >= la || k >= 6 {
			for i := range cur {
				cur[i] = b.andn(cur[i], ak)
			}
			continue
		}
		next := make(wbits, la)
		for i := 0; i < la; i++ {
			next[i] = b.mux(cur.get(i+sh), cur[i], ak)
		}
		cur = next
	}
	return cur.trunc(w)
}

// constBits bit-blasts a raw constant (all lanes identical).
func constBits(v uint64) wbits {
	n := bits.Len64(v)
	out := make(wbits, n)
	for i := 0; i < n; i++ {
		if v>>uint(i)&1 == 1 {
			out[i] = bw1
		} else {
			out[i] = bw0
		}
	}
	return out
}

// expr bit-blasts e, returning the raw Eval(e) value (truncation semantics
// identical to rtl.Eval, including raw unmasked constants and concat
// overlap).
func (b *bbuild) expr(e rtl.Expr) (wbits, error) {
	switch x := e.(type) {
	case *rtl.Const:
		return constBits(x.Val), nil

	case *rtl.Ref:
		stored := b.p.bits(x.Sig)
		if stored == nil {
			return nil, fmt.Errorf("simc: expression reads unknown signal %q", x.Sig.Name)
		}
		return stored.trunc(x.Sig.Width), nil

	case *rtl.Unary:
		v, err := b.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case rtl.OpNot:
			out := make(wbits, x.W)
			for i := 0; i < x.W; i++ {
				out[i] = b.not(v.get(i))
			}
			return out, nil
		case rtl.OpLogNot:
			return wbits{b.not(b.redOr(v))}, nil
		case rtl.OpNeg:
			nv := make(wbits, x.W)
			for i := 0; i < x.W; i++ {
				nv[i] = b.not(v.get(i))
			}
			return b.addc(nv, wbits{}, bw1, x.W), nil
		case rtl.OpRedAnd:
			w := x.X.Width()
			ws := make([]int32, 0, w)
			for i := 0; i < w; i++ {
				ws = append(ws, v.get(i))
			}
			all := b.tree(b.and, ws)
			if len(v) > w {
				// Raw bits beyond the operand width make v != Mask(w).
				all = b.andn(all, b.redOr(v[w:]))
			}
			return wbits{all}, nil
		case rtl.OpRedOr:
			return wbits{b.redOr(v)}, nil
		case rtl.OpRedXor:
			return wbits{b.tree(b.xor, append([]int32(nil), v...))}, nil
		}
		return nil, fmt.Errorf("simc: unknown unary op %d", x.Op)

	case *rtl.Binary:
		av, err := b.expr(x.A)
		if err != nil {
			return nil, err
		}
		bv, err := b.expr(x.B)
		if err != nil {
			return nil, err
		}
		bitwise := func(op func(int32, int32) int32) wbits {
			out := make(wbits, x.W)
			for i := 0; i < x.W; i++ {
				out[i] = op(av.get(i), bv.get(i))
			}
			return out
		}
		switch x.Op {
		case rtl.OpAnd:
			return bitwise(b.and), nil
		case rtl.OpOr:
			return bitwise(b.or), nil
		case rtl.OpXor:
			return bitwise(b.xor), nil
		case rtl.OpXnor:
			return bitwise(func(p, q int32) int32 { return b.not(b.xor(p, q)) }), nil
		case rtl.OpLogAnd:
			return wbits{b.and(b.redOr(av), b.redOr(bv))}, nil
		case rtl.OpLogOr:
			return wbits{b.or(b.redOr(av), b.redOr(bv))}, nil
		case rtl.OpAdd:
			return b.add(av, bv, x.W), nil
		case rtl.OpSub:
			return b.sub(av, bv, x.W), nil
		case rtl.OpMul:
			return b.mul(av, bv, x.W), nil
		case rtl.OpEq:
			return wbits{b.eq(av, bv)}, nil
		case rtl.OpNe:
			return wbits{b.not(b.eq(av, bv))}, nil
		case rtl.OpLt:
			return wbits{b.ult(av, bv)}, nil
		case rtl.OpLe:
			return wbits{b.not(b.ult(bv, av))}, nil
		case rtl.OpGt:
			return wbits{b.ult(bv, av)}, nil
		case rtl.OpGe:
			return wbits{b.not(b.ult(av, bv))}, nil
		case rtl.OpShl:
			return b.shl(av, bv, x.W), nil
		case rtl.OpShr:
			return b.shr(av, bv, x.W), nil
		}
		return nil, fmt.Errorf("simc: unknown binary op %d", x.Op)

	case *rtl.Mux:
		cv, err := b.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		tv, err := b.expr(x.T)
		if err != nil {
			return nil, err
		}
		fv, err := b.expr(x.F)
		if err != nil {
			return nil, err
		}
		cond := cv.get(0)
		out := make(wbits, x.W)
		for i := 0; i < x.W; i++ {
			out[i] = b.mux(tv.get(i), fv.get(i), cond)
		}
		return out, nil

	case *rtl.Select:
		v, err := b.expr(x.X)
		if err != nil {
			return nil, err
		}
		return wbits{v.get(x.Bit)}, nil

	case *rtl.Slice:
		v, err := b.expr(x.X)
		if err != nil {
			return nil, err
		}
		out := make(wbits, x.MSB-x.LSB+1)
		for i := range out {
			out[i] = v.get(x.LSB + i)
		}
		return out, nil

	case *rtl.Concat:
		if len(x.Parts) == 0 {
			return nil, fmt.Errorf("simc: empty concat")
		}
		acc, err := b.expr(x.Parts[0])
		if err != nil {
			return nil, err
		}
		for pi := 1; pi < len(x.Parts); pi++ {
			pv, err := b.expr(x.Parts[pi])
			if err != nil {
				return nil, err
			}
			w := x.Parts[pi].Width()
			// v = (v << w) | raw part; part bits past w overlap the shifted
			// accumulator bits, exactly like the interpreter's fold.
			n := len(acc) + w
			if n > 64 {
				n = 64
			}
			if ln := len(pv); ln > n {
				n = ln
			}
			if n > 64 {
				n = 64
			}
			next := make(wbits, n)
			for i := 0; i < n; i++ {
				var hi int32 = bw0
				if i >= w && i-w < len(acc) {
					hi = acc[i-w]
				}
				next[i] = b.or(hi, pv.get(i))
			}
			acc = next
		}
		return acc.trunc(x.W), nil
	}
	return nil, fmt.Errorf("simc: unknown expression node %T", e)
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

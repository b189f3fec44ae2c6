// Package cnf encodes elaborated RTL designs into CNF for the SAT solver via
// the Tseitin transformation. The central type is the Unroller, which
// materializes a design over consecutive time frames: frame t's register bits
// are the encoded next-state functions of frame t-1, inputs get fresh solver
// variables every frame, and combinational signals are encoded on demand with
// per-frame caching. Both bounded model checking and k-induction in the mc
// package are built on top of it.
package cnf

import (
	"fmt"

	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/sim"
)

// Vec is a little-endian vector of literals representing a word: Vec[0] is
// bit 0 (LSB).
type Vec []sat.Lit

// Unroller encodes a design over time frames 0..T-1.
type Unroller struct {
	S *sat.Solver
	D *rtl.Design

	constTrue sat.Lit

	// frames[t] holds the encodings of frame t.
	frames []*frame

	// lazy defers input/register materialization to first reference, so a
	// property's encoding touches exactly the sequential cone of influence of
	// the signals it mentions (see NewLazyUnroller).
	lazy bool
	// initZero records that InitZero was requested, so lazily materialized
	// frame-0 registers are constrained to the reset state on creation.
	initZero bool

	// gates[v] holds the input variables of the Tseitin gate whose output is
	// variable v ({0, 0} for a leaf: an input, a frame-0 register, the
	// constant, or a variable allocated outside the unroller). A mux's second
	// slot is -(k+1), naming its data inputs muxData[k]; the table stays at
	// two int32 per variable because muxes are the minority of gates.
	gates   [][2]int32
	muxData [][2]int32
	// coneBuf and coneMark are ConeVars' reused output and visited bitset.
	coneBuf  []int
	coneMark []uint64
}

// frame holds the encodings of one time frame: vecs[sig.ID] is the literal
// vector of an input, register or combinational signal, nil while it is
// not materialised.
type frame struct {
	vecs []Vec
}

// NewUnroller creates an unroller with zero frames.
func NewUnroller(s *sat.Solver, d *rtl.Design) *Unroller {
	u := &Unroller{S: s, D: d}
	tv := s.NewVar()
	u.constTrue = sat.Lit(tv)
	s.AddClause(u.constTrue)
	return u
}

// NewLazyUnroller creates an unroller that materializes signals on demand:
// AddFrame only reserves a frame, and inputs/registers get solver variables
// the first time they are referenced (directly or through a register's
// next-state function in an earlier frame). Encoding a property therefore
// emits CNF for exactly the transitive sequential cone of influence of the
// signals the property mentions — on a wide design, a narrow assertion
// encodes a fraction of the transition relation.
//
// This is sound because the unreferenced logic is definitional (Tseitin
// clauses constrain only their own fresh outputs), so omitting it cannot
// change satisfiability of the encoded cone; it only leaves the unreferenced
// inputs unconstrained, which is what the eager encoding does anyway.
//
// InputModel only reports inputs that were materialized; callers that need a
// total stimulus (the mc package) fill the rest with zeros.
func NewLazyUnroller(s *sat.Solver, d *rtl.Design) *Unroller {
	u := NewUnroller(s, d)
	u.lazy = true
	return u
}

// True returns the constant-true literal.
func (u *Unroller) True() sat.Lit { return u.constTrue }

// False returns the constant-false literal.
func (u *Unroller) False() sat.Lit { return u.constTrue.Neg() }

// Frames returns the number of materialized frames.
func (u *Unroller) Frames() int { return len(u.frames) }

// AddFrame materializes the next time frame and returns its index. Frame 0
// registers get fresh unconstrained variables (constrain with InitZero for
// reset-state reasoning); frame t>0 registers are wired to the encoded
// next-state functions of frame t-1.
func (u *Unroller) AddFrame() int {
	t := len(u.frames)
	f := &frame{vecs: make([]Vec, len(u.D.Signals))}
	u.frames = append(u.frames, f)
	if u.lazy {
		return t
	}
	for _, in := range u.D.Inputs() {
		f.vecs[in.ID] = u.freshVec(in.Width)
	}
	for _, reg := range u.D.Registers() {
		u.regVec(f, t, reg)
	}
	return t
}

// regVec materializes register sig at frame t and stores it in f: fresh
// variables at frame 0 (reset-constrained when InitZero is in effect), the
// encoded next-state function of frame t-1 otherwise.
func (u *Unroller) regVec(f *frame, t int, sig *rtl.Signal) Vec {
	if t == 0 {
		v := u.freshVec(sig.Width)
		f.vecs[sig.ID] = v
		if u.initZero {
			for _, l := range v {
				u.S.AddClause(l.Neg())
			}
		}
		return v
	}
	v := u.encodeExpr(u.D.Next[sig], t-1)
	f.vecs[sig.ID] = v
	return v
}

// InitZero constrains every register bit of frame 0 to zero (the reset state
// shared with the simulator). Under a lazy unroller the constraint also
// applies to frame-0 registers materialized after this call.
func (u *Unroller) InitZero() {
	u.initZero = true
	if len(u.frames) == 0 {
		u.AddFrame()
	}
	for _, reg := range u.D.Registers() {
		for _, l := range u.frames[0].vecs[reg.ID] {
			u.S.AddClause(l.Neg())
		}
	}
}

func (u *Unroller) freshVec(w int) Vec {
	v := make(Vec, w)
	for i := range v {
		v[i] = sat.Lit(u.S.NewVar())
	}
	return v
}

// SignalVec returns the literal vector of sig at frame t, encoding its
// combinational cone on demand. A signal of another design is an error.
func (u *Unroller) SignalVec(t int, sig *rtl.Signal) (Vec, error) {
	if t < 0 || t >= len(u.frames) {
		return nil, fmt.Errorf("frame %d not materialized (have %d)", t, len(u.frames))
	}
	if !u.D.Owns(sig) {
		return nil, fmt.Errorf("signal %s is not a signal of design %s", sig.Name, u.D.Name)
	}
	f := u.frames[t]
	if v := f.vecs[sig.ID]; v != nil {
		return v, nil
	}
	if u.lazy {
		// First reference: materialize exactly this signal (and, for a
		// register at t > 0, its next-state cone in frame t-1).
		if sig.Kind == rtl.SigInput && sig.Name != u.D.Clock {
			v := u.freshVec(sig.Width)
			f.vecs[sig.ID] = v
			return v, nil
		}
		if sig.IsState {
			return u.regVec(f, t, sig), nil
		}
	}
	e, ok := u.D.Comb[sig]
	if !ok {
		return nil, fmt.Errorf("signal %s has no encoding at frame %d", sig.Name, t)
	}
	v := u.encodeExpr(e, t)
	f.vecs[sig.ID] = v
	return v, nil
}

// EncodeExpr encodes an arbitrary expression evaluated at frame t.
func (u *Unroller) EncodeExpr(e rtl.Expr, t int) (Vec, error) {
	if t < 0 || t >= len(u.frames) {
		return nil, fmt.Errorf("frame %d not materialized (have %d)", t, len(u.frames))
	}
	return u.encodeExpr(e, t), nil
}

// InputVecAt returns the literal vector of input sig at frame t if it has
// been materialized, without forcing materialization. Under a lazy unroller a
// missing vector means the input is outside every encoded cone at that frame
// and is therefore unconstrained.
func (u *Unroller) InputVecAt(t int, sig *rtl.Signal) (Vec, bool) {
	if t < 0 || t >= len(u.frames) || !u.D.Owns(sig) || sig.Kind != rtl.SigInput {
		return nil, false
	}
	v := u.frames[t].vecs[sig.ID]
	return v, v != nil
}

// InputModel extracts the input assignment of frame t from a satisfying
// model.
func (u *Unroller) InputModel(t int) sim.InputVec {
	f := u.frames[t]
	iv := sim.InputVec{}
	for id, vec := range f.vecs {
		sig := u.D.Signals[id]
		if vec == nil || sig.Kind != rtl.SigInput {
			continue
		}
		var val uint64
		for i, l := range vec {
			if u.S.ValueLit(l) {
				val |= 1 << uint(i)
			}
		}
		iv[sig.Name] = val
	}
	return iv
}

// SignalModel extracts the value of sig at frame t from a satisfying model.
func (u *Unroller) SignalModel(t int, sig *rtl.Signal) (uint64, error) {
	vec, err := u.SignalVec(t, sig)
	if err != nil {
		return 0, err
	}
	var val uint64
	for i, l := range vec {
		if u.S.ValueLit(l) {
			val |= 1 << uint(i)
		}
	}
	return val, nil
}

// ConeVars returns the variables of the transitive Tseitin cone of lits: the
// literals' own variables plus, for every gate output reached, the gate's
// inputs, down to the leaves. This is the decision scope of a query whose
// assumptions are lits (sat.Solver.SolveScoped): every clause the unroller
// emits either lies inside the cone, defines a gate outside it, or is
// satisfied at decision level 0 (the reset units of InitZero and the
// constant), so a cone assignment without conflict extends to a model.
//
// The returned slice is a buffer reused by the next ConeVars call.
func (u *Unroller) ConeVars(lits []sat.Lit) []int {
	if n := u.S.NumVars()/64 + 1; len(u.coneMark) < n {
		u.coneMark = append(u.coneMark, make([]uint64, n-len(u.coneMark))...)
	}
	mark := u.coneMark
	out := u.coneBuf[:0]
	visit := func(v int) {
		if mark[v>>6]&(1<<(v&63)) == 0 {
			mark[v>>6] |= 1 << (v & 63)
			out = append(out, v)
		}
	}
	for _, l := range lits {
		visit(l.Var())
	}
	for i := 0; i < len(out); i++ {
		v := out[i]
		if v >= len(u.gates) || u.gates[v][0] == 0 {
			continue
		}
		g := u.gates[v]
		visit(int(g[0]))
		if g[1] > 0 {
			visit(int(g[1]))
		} else {
			d := u.muxData[-g[1]-1]
			visit(int(d[0]))
			visit(int(d[1]))
		}
	}
	for _, v := range out {
		mark[v>>6] = 0
	}
	u.coneBuf = out
	return out
}

// ---------------------------------------------------------------------------
// Expression encoding
// ---------------------------------------------------------------------------

func (u *Unroller) encodeExpr(e rtl.Expr, t int) Vec {
	switch x := e.(type) {
	case *rtl.Const:
		v := make(Vec, x.W)
		for i := range v {
			if (x.Val>>uint(i))&1 == 1 {
				v[i] = u.True()
			} else {
				v[i] = u.False()
			}
		}
		return v

	case *rtl.Ref:
		v, err := u.SignalVec(t, x.Sig)
		if err != nil {
			panic("cnf: " + err.Error())
		}
		return v

	case *rtl.Unary:
		sub := u.encodeExpr(x.X, t)
		switch x.Op {
		case rtl.OpNot:
			out := make(Vec, len(sub))
			for i, l := range sub {
				out[i] = l.Neg()
			}
			return out
		case rtl.OpLogNot:
			return Vec{u.orTree(sub).Neg()}
		case rtl.OpNeg:
			return u.addVec(u.notVec(sub), u.constVec(1, len(sub)), nil)
		case rtl.OpRedAnd:
			return Vec{u.andTree(sub)}
		case rtl.OpRedOr:
			return Vec{u.orTree(sub)}
		case rtl.OpRedXor:
			return Vec{u.xorTree(sub)}
		}
		panic(fmt.Sprintf("cnf: bad unary op %v", x.Op))

	case *rtl.Binary:
		a := u.encodeExpr(x.A, t)
		b := u.encodeExpr(x.B, t)
		// The elaborator emits width-matched operands; be defensive for
		// hand-built expressions (mirrors rtl.Eval's masking semantics).
		switch x.Op {
		case rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpXnor, rtl.OpAdd, rtl.OpSub, rtl.OpMul:
			a = u.extendVec(a, x.W)
			b = u.extendVec(b, x.W)
		case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
			w := len(a)
			if len(b) > w {
				w = len(b)
			}
			a = u.extendVec(a, w)
			b = u.extendVec(b, w)
		}
		switch x.Op {
		case rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpXnor:
			out := make(Vec, x.W)
			for i := range out {
				switch x.Op {
				case rtl.OpAnd:
					out[i] = u.andGate(a[i], b[i])
				case rtl.OpOr:
					out[i] = u.orGate(a[i], b[i])
				case rtl.OpXor:
					out[i] = u.xorGate(a[i], b[i])
				default:
					out[i] = u.xorGate(a[i], b[i]).Neg()
				}
			}
			return out
		case rtl.OpLogAnd:
			return Vec{u.andGate(u.orTree(a), u.orTree(b))}
		case rtl.OpLogOr:
			return Vec{u.orGate(u.orTree(a), u.orTree(b))}
		case rtl.OpAdd:
			return u.addVec(a, b, nil)
		case rtl.OpSub:
			one := u.True()
			return u.addVec(a, u.notVec(b), &one)
		case rtl.OpMul:
			return u.mulVec(a, b, x.W)
		case rtl.OpEq:
			return Vec{u.eqVec(a, b)}
		case rtl.OpNe:
			return Vec{u.eqVec(a, b).Neg()}
		case rtl.OpLt:
			return Vec{u.ltVec(a, b)}
		case rtl.OpLe:
			return Vec{u.ltVec(b, a).Neg()}
		case rtl.OpGt:
			return Vec{u.ltVec(b, a)}
		case rtl.OpGe:
			return Vec{u.ltVec(a, b).Neg()}
		case rtl.OpShl:
			return u.shiftVec(a, b, true)
		case rtl.OpShr:
			return u.shiftVec(a, b, false)
		}
		panic(fmt.Sprintf("cnf: bad binary op %v", x.Op))

	case *rtl.Mux:
		c := u.encodeExpr(x.Cond, t)
		cond := c[0]
		tv := u.extendVec(u.encodeExpr(x.T, t), x.W)
		fv := u.extendVec(u.encodeExpr(x.F, t), x.W)
		out := make(Vec, x.W)
		for i := range out {
			out[i] = u.muxGate(cond, tv[i], fv[i])
		}
		return out

	case *rtl.Select:
		sub := u.encodeExpr(x.X, t)
		return Vec{sub[x.Bit]}

	case *rtl.Slice:
		sub := u.encodeExpr(x.X, t)
		return sub[x.LSB : x.MSB+1]

	case *rtl.Concat:
		out := make(Vec, 0, x.W)
		// Parts are MSB-first; build little-endian.
		for i := len(x.Parts) - 1; i >= 0; i-- {
			out = append(out, u.encodeExpr(x.Parts[i], t)...)
		}
		return out

	default:
		panic(fmt.Sprintf("cnf: unknown expression %T", e))
	}
}

// ---------------------------------------------------------------------------
// Gate primitives (Tseitin)
// ---------------------------------------------------------------------------

func (u *Unroller) fresh() sat.Lit { return sat.Lit(u.S.NewVar()) }

// gate allocates a gate output and records its inputs in the gate table:
// a's variable and b, which is the second input's variable, or -(k+1) for a
// mux whose data inputs are muxData[k] (see Unroller.gates).
func (u *Unroller) gate(a sat.Lit, b int32) sat.Lit {
	o := u.fresh()
	for len(u.gates) <= int(o) {
		u.gates = append(u.gates, [2]int32{})
	}
	u.gates[o] = [2]int32{int32(a.Var()), b}
	return o
}

func (u *Unroller) andGate(a, b sat.Lit) sat.Lit {
	if a == u.False() || b == u.False() {
		return u.False()
	}
	if a == u.True() {
		return b
	}
	if b == u.True() {
		return a
	}
	if a == b {
		return a
	}
	if a == b.Neg() {
		return u.False()
	}
	o := u.gate(a, int32(b.Var()))
	u.S.AddClause(a.Neg(), b.Neg(), o)
	u.S.AddClause(a, o.Neg())
	u.S.AddClause(b, o.Neg())
	return o
}

func (u *Unroller) orGate(a, b sat.Lit) sat.Lit {
	return u.andGate(a.Neg(), b.Neg()).Neg()
}

func (u *Unroller) xorGate(a, b sat.Lit) sat.Lit {
	if a == u.False() {
		return b
	}
	if b == u.False() {
		return a
	}
	if a == u.True() {
		return b.Neg()
	}
	if b == u.True() {
		return a.Neg()
	}
	if a == b {
		return u.False()
	}
	if a == b.Neg() {
		return u.True()
	}
	o := u.gate(a, int32(b.Var()))
	u.S.AddClause(a.Neg(), b.Neg(), o.Neg())
	u.S.AddClause(a, b, o.Neg())
	u.S.AddClause(a.Neg(), b, o)
	u.S.AddClause(a, b.Neg(), o)
	return o
}

func (u *Unroller) muxGate(c, t, f sat.Lit) sat.Lit {
	if c == u.True() {
		return t
	}
	if c == u.False() {
		return f
	}
	if t == f {
		return t
	}
	u.muxData = append(u.muxData, [2]int32{int32(t.Var()), int32(f.Var())})
	o := u.gate(c, -int32(len(u.muxData)))
	u.S.AddClause(c.Neg(), t.Neg(), o)
	u.S.AddClause(c.Neg(), t, o.Neg())
	u.S.AddClause(c, f.Neg(), o)
	u.S.AddClause(c, f, o.Neg())
	return o
}

func (u *Unroller) andTree(v Vec) sat.Lit {
	out := u.True()
	for _, l := range v {
		out = u.andGate(out, l)
	}
	return out
}

func (u *Unroller) orTree(v Vec) sat.Lit {
	out := u.False()
	for _, l := range v {
		out = u.orGate(out, l)
	}
	return out
}

func (u *Unroller) xorTree(v Vec) sat.Lit {
	out := u.False()
	for _, l := range v {
		out = u.xorGate(out, l)
	}
	return out
}

// ---------------------------------------------------------------------------
// Word-level primitives
// ---------------------------------------------------------------------------

func (u *Unroller) constVec(val uint64, w int) Vec {
	v := make(Vec, w)
	for i := range v {
		if (val>>uint(i))&1 == 1 {
			v[i] = u.True()
		} else {
			v[i] = u.False()
		}
	}
	return v
}

func (u *Unroller) notVec(a Vec) Vec {
	out := make(Vec, len(a))
	for i, l := range a {
		out[i] = l.Neg()
	}
	return out
}

func (u *Unroller) extendVec(a Vec, w int) Vec {
	if len(a) == w {
		return a
	}
	if len(a) > w {
		return a[:w]
	}
	out := make(Vec, w)
	copy(out, a)
	for i := len(a); i < w; i++ {
		out[i] = u.False()
	}
	return out
}

// addVec is a ripple-carry adder; carryIn may be nil (zero).
func (u *Unroller) addVec(a, b Vec, carryIn *sat.Lit) Vec {
	w := len(a)
	if len(b) != w {
		panic("cnf: adder width mismatch")
	}
	out := make(Vec, w)
	c := u.False()
	if carryIn != nil {
		c = *carryIn
	}
	for i := 0; i < w; i++ {
		axb := u.xorGate(a[i], b[i])
		out[i] = u.xorGate(axb, c)
		// carry = (a&b) | (c & (a^b))
		c = u.orGate(u.andGate(a[i], b[i]), u.andGate(c, axb))
	}
	return out
}

// mulVec is a shift-add multiplier truncated to w bits.
func (u *Unroller) mulVec(a, b Vec, w int) Vec {
	acc := u.constVec(0, w)
	for i := 0; i < len(b) && i < w; i++ {
		// partial = (a << i) & b[i]
		part := make(Vec, w)
		for j := 0; j < w; j++ {
			if j < i || j-i >= len(a) {
				part[j] = u.False()
			} else {
				part[j] = u.andGate(a[j-i], b[i])
			}
		}
		acc = u.addVec(acc, part, nil)
	}
	return acc
}

func (u *Unroller) eqVec(a, b Vec) sat.Lit {
	out := u.True()
	for i := range a {
		out = u.andGate(out, u.xorGate(a[i], b[i]).Neg())
	}
	return out
}

// ltVec computes unsigned a < b.
func (u *Unroller) ltVec(a, b Vec) sat.Lit {
	lt := u.False()
	for i := 0; i < len(a); i++ {
		eq := u.xorGate(a[i], b[i]).Neg()
		bitLt := u.andGate(a[i].Neg(), b[i])
		lt = u.orGate(bitLt, u.andGate(eq, lt))
	}
	return lt
}

// shiftVec implements a barrel shifter for variable amounts (left when left
// is true), one mux stage per amount bit. Shift amounts >= width yield zero,
// matching rtl.Eval: a stage whose shift reaches the width selects all-zero.
func (u *Unroller) shiftVec(a, amt Vec, left bool) Vec {
	w := len(a)
	cur := a
	for s := 0; s < len(amt); s++ {
		// A stage from bit 30 up shifts by at least 1<<30, more than any
		// width, so every bit moves out (1<<s itself overflows int at s=63).
		shift := w
		if s < 30 {
			shift = 1 << uint(s)
		}
		next := make(Vec, w)
		for i := 0; i < w; i++ {
			shifted := u.False()
			if left && i-shift >= 0 {
				shifted = cur[i-shift]
			} else if !left && i+shift < w {
				shifted = cur[i+shift]
			}
			next[i] = u.muxGate(amt[s], shifted, cur[i])
		}
		cur = next
	}
	return cur
}

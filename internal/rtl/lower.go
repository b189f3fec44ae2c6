package rtl

import "fmt"

// Gates is a bit-level gate algebra over bits of type B: two constants,
// five gates and the bits of a signal. Lower builds every operator of an
// expression from them, so each backend (the CNF encoder, the batch
// simulator) supplies only its gates and shares one lowering, and with it
// Eval's semantics.
type Gates[B any] interface {
	False() B
	True() B
	Not(x B) B
	And(x, y B) B
	Or(x, y B) B
	Xor(x, y B) B
	// Mux is t where c is 1 and f where c is 0.
	Mux(c, t, f B) B
	// Ref returns the bits of sig, least significant first.
	Ref(sig *Signal) ([]B, error)
}

// Lower builds e from g's gates and returns its e.Width() bits, least
// significant first, computing the value Eval computes. The gates are
// created in a fixed order (operands left to right, bits from the least
// significant up, linear reduction chains, ripple-carry adders), so a
// backend that numbers its gates by creation gets the same numbering for
// the same expression every time. The returned slice may share storage with
// the bits Ref returned.
func Lower[B any, G Gates[B]](g G, e Expr) ([]B, error) {
	return lowering[B, G]{g}.expr(e)
}

type lowering[B any, G Gates[B]] struct{ g G }

func (l lowering[B, G]) expr(e Expr) ([]B, error) {
	g := l.g
	switch x := e.(type) {
	case *Const:
		return l.constant(x.Val, x.W), nil

	case *Ref:
		v, err := g.Ref(x.Sig)
		if err != nil {
			return nil, err
		}
		return l.fit(v, x.Sig.Width), nil

	case *Unary:
		v, err := l.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpNot:
			return l.not(l.fit(v, x.W)), nil
		case OpLogNot:
			return []B{g.Not(l.orAll(v))}, nil
		case OpNeg:
			v = l.fit(v, x.W)
			return l.add(l.not(v), l.constant(1, len(v)), g.False()), nil
		case OpRedAnd:
			out := g.True()
			for _, b := range v {
				out = g.And(out, b)
			}
			return []B{out}, nil
		case OpRedOr:
			return []B{l.orAll(v)}, nil
		case OpRedXor:
			out := g.False()
			for _, b := range v {
				out = g.Xor(out, b)
			}
			return []B{out}, nil
		}
		return nil, fmt.Errorf("rtl: bad unary op %d", x.Op)

	case *Binary:
		a, err := l.expr(x.A)
		if err != nil {
			return nil, err
		}
		b, err := l.expr(x.B)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpAnd, OpOr, OpXor, OpXnor, OpAdd, OpSub, OpMul:
			a, b = l.fit(a, x.W), l.fit(b, x.W)
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			w := max(len(a), len(b))
			a, b = l.fit(a, w), l.fit(b, w)
		}
		switch x.Op {
		case OpAnd, OpOr, OpXor, OpXnor:
			out := make([]B, x.W)
			for i := range out {
				switch x.Op {
				case OpAnd:
					out[i] = g.And(a[i], b[i])
				case OpOr:
					out[i] = g.Or(a[i], b[i])
				case OpXor:
					out[i] = g.Xor(a[i], b[i])
				default:
					out[i] = g.Not(g.Xor(a[i], b[i]))
				}
			}
			return out, nil
		case OpLogAnd:
			return []B{g.And(l.orAll(a), l.orAll(b))}, nil
		case OpLogOr:
			return []B{g.Or(l.orAll(a), l.orAll(b))}, nil
		case OpAdd:
			return l.add(a, b, g.False()), nil
		case OpSub:
			return l.add(a, l.not(b), g.True()), nil
		case OpMul:
			return l.mul(a, b, x.W), nil
		case OpEq:
			return []B{l.eq(a, b)}, nil
		case OpNe:
			return []B{g.Not(l.eq(a, b))}, nil
		case OpLt:
			return []B{l.lt(a, b)}, nil
		case OpLe:
			return []B{g.Not(l.lt(b, a))}, nil
		case OpGt:
			return []B{l.lt(b, a)}, nil
		case OpGe:
			return []B{g.Not(l.lt(a, b))}, nil
		case OpShl, OpShr:
			return l.shift(a, b, x.W, x.Op == OpShl), nil
		}
		return nil, fmt.Errorf("rtl: bad binary op %d", x.Op)

	case *Mux:
		c, err := l.expr(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := l.expr(x.T)
		if err != nil {
			return nil, err
		}
		t = l.fit(t, x.W)
		f, err := l.expr(x.F)
		if err != nil {
			return nil, err
		}
		f = l.fit(f, x.W)
		out := make([]B, x.W)
		for i := range out {
			out[i] = g.Mux(c[0], t[i], f[i])
		}
		return out, nil

	case *Select:
		v, err := l.expr(x.X)
		if err != nil {
			return nil, err
		}
		if x.Bit >= len(v) {
			return []B{g.False()}, nil
		}
		return []B{v[x.Bit]}, nil

	case *Slice:
		v, err := l.expr(x.X)
		if err != nil {
			return nil, err
		}
		lo, hi := min(x.LSB, len(v)), min(x.MSB+1, len(v))
		return l.fit(v[lo:hi], x.MSB-x.LSB+1), nil

	case *Concat:
		out := make([]B, 0, x.W)
		// Parts are most significant first.
		for i := len(x.Parts) - 1; i >= 0; i-- {
			v, err := l.expr(x.Parts[i])
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return l.fit(out, x.W), nil
	}
	return nil, fmt.Errorf("rtl: unknown expression %T", e)
}

// constant returns the w low bits of val.
func (l lowering[B, G]) constant(val uint64, w int) []B {
	out := make([]B, w)
	for i := range out {
		if i < 64 && val>>uint(i)&1 == 1 {
			out[i] = l.g.True()
		} else {
			out[i] = l.g.False()
		}
	}
	return out
}

// fit truncates v to w bits or zero-extends it to w bits.
func (l lowering[B, G]) fit(v []B, w int) []B {
	if len(v) >= w {
		return v[:w]
	}
	out := make([]B, w)
	copy(out, v)
	for i := len(v); i < w; i++ {
		out[i] = l.g.False()
	}
	return out
}

func (l lowering[B, G]) not(v []B) []B {
	out := make([]B, len(v))
	for i, b := range v {
		out[i] = l.g.Not(b)
	}
	return out
}

// orAll is 1 where v is nonzero.
func (l lowering[B, G]) orAll(v []B) B {
	out := l.g.False()
	for _, b := range v {
		out = l.g.Or(out, b)
	}
	return out
}

// add is a ripple-carry adder of two equal-width words.
func (l lowering[B, G]) add(a, b []B, carry B) []B {
	g := l.g
	out := make([]B, len(a))
	for i := range a {
		axb := g.Xor(a[i], b[i])
		out[i] = g.Xor(axb, carry)
		carry = g.Or(g.And(a[i], b[i]), g.And(carry, axb))
	}
	return out
}

// mul is a shift-add multiplier truncated to w bits: one partial product
// (a << i) & b[i] per bit of b.
func (l lowering[B, G]) mul(a, b []B, w int) []B {
	g := l.g
	acc := l.constant(0, w)
	for i := 0; i < len(b) && i < w; i++ {
		part := make([]B, w)
		for j := range part {
			if j < i || j-i >= len(a) {
				part[j] = g.False()
			} else {
				part[j] = g.And(a[j-i], b[i])
			}
		}
		acc = l.add(acc, part, g.False())
	}
	return acc
}

// eq is 1 where two equal-width words are equal.
func (l lowering[B, G]) eq(a, b []B) B {
	g := l.g
	out := g.True()
	for i := range a {
		out = g.And(out, g.Not(g.Xor(a[i], b[i])))
	}
	return out
}

// lt is 1 where a < b, unsigned, for two equal-width words.
func (l lowering[B, G]) lt(a, b []B) B {
	g := l.g
	lt := g.False()
	for i := range a {
		eq := g.Not(g.Xor(a[i], b[i]))
		bitLt := g.And(g.Not(a[i]), b[i])
		lt = g.Or(bitLt, g.And(eq, lt))
	}
	return lt
}

// shift is a barrel shifter (left when left is true) truncated to w bits,
// one mux stage per amount bit. It shifts at the wider of a and w, so a
// right shift brings down bits above w, as Eval does. An amount at or past
// the width yields zero, as Eval's amounts of 64 and more do.
func (l lowering[B, G]) shift(a, amt []B, w int, left bool) []B {
	g := l.g
	n := max(len(a), w)
	cur := l.fit(a, n)
	for s := range amt {
		// A stage from bit 30 up shifts by at least 1<<30, more than any
		// width, so every bit moves out (1<<s itself overflows int at s=63).
		shift := n
		if s < 30 {
			shift = 1 << uint(s)
		}
		next := make([]B, n)
		for i := range next {
			shifted := g.False()
			if left && i-shift >= 0 {
				shifted = cur[i-shift]
			} else if !left && i+shift < n {
				shifted = cur[i+shift]
			}
			next[i] = g.Mux(amt[s], shifted, cur[i])
		}
		cur = next
	}
	return l.fit(cur, w)
}

package cnf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"goldmine/internal/rtl"
	"goldmine/internal/sat"
	"goldmine/internal/simc"
)

// randExpr builds a random well-formed expression over the given signals,
// with operands up to 64 bits wide.
func randExpr(rng *rand.Rand, sigs []*rtl.Signal, depth int) rtl.Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			w := 1 + rng.Intn(6)
			if rng.Intn(4) == 0 {
				w = 1 + rng.Intn(64)
			}
			return rtl.NewConst(rng.Uint64(), w)
		}
		return &rtl.Ref{Sig: sigs[rng.Intn(len(sigs))]}
	}
	switch rng.Intn(8) {
	case 0:
		x := randExpr(rng, sigs, depth-1)
		ops := []rtl.UnOp{rtl.OpNot, rtl.OpLogNot, rtl.OpNeg, rtl.OpRedAnd, rtl.OpRedOr, rtl.OpRedXor}
		op := ops[rng.Intn(len(ops))]
		w := x.Width()
		if op != rtl.OpNot && op != rtl.OpNeg {
			w = 1
		}
		if op == rtl.OpLogNot {
			x = rtl.Boolify(x)
		}
		return &rtl.Unary{Op: op, X: x, W: w}
	case 1:
		c := rtl.Boolify(randExpr(rng, sigs, depth-1))
		t := randExpr(rng, sigs, depth-1)
		f := randExpr(rng, sigs, depth-1)
		w := t.Width()
		if f.Width() > w {
			w = f.Width()
		}
		return &rtl.Mux{Cond: c, T: rtl.Extend(t, w), F: rtl.Extend(f, w), W: w}
	case 2:
		x := randExpr(rng, sigs, depth-1)
		if x.Width() > 1 {
			return &rtl.Select{X: x, Bit: rng.Intn(x.Width())}
		}
		return x
	case 3:
		x := randExpr(rng, sigs, depth-1)
		if x.Width() > 1 {
			lsb := rng.Intn(x.Width())
			msb := lsb + rng.Intn(x.Width()-lsb)
			return &rtl.Slice{X: x, MSB: msb, LSB: lsb}
		}
		return x
	case 4:
		// Two or three parts, up to 64 bits in all.
		parts := []rtl.Expr{randExpr(rng, sigs, depth-1)}
		w := parts[0].Width()
		for n := 2 + rng.Intn(2); len(parts) < n; {
			p := randExpr(rng, sigs, depth-1)
			if w+p.Width() > 64 {
				break
			}
			parts = append(parts, p)
			w += p.Width()
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return rtl.NewConcat(parts)
	default:
		a := randExpr(rng, sigs, depth-1)
		b := randExpr(rng, sigs, depth-1)
		ops := []rtl.BinOp{
			rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpXnor,
			rtl.OpLogAnd, rtl.OpLogOr,
			rtl.OpAdd, rtl.OpSub, rtl.OpMul,
			rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe,
			rtl.OpShl, rtl.OpShr,
		}
		op := ops[rng.Intn(len(ops))]
		switch {
		case op == rtl.OpLogAnd || op == rtl.OpLogOr:
			return &rtl.Binary{Op: op, A: rtl.Boolify(a), B: rtl.Boolify(b), W: 1}
		case op.IsBoolOp():
			w := maxInt(a.Width(), b.Width())
			return &rtl.Binary{Op: op, A: rtl.Extend(a, w), B: rtl.Extend(b, w), W: 1}
		case op == rtl.OpShl || op == rtl.OpShr:
			// The amount keeps its width: read from the 32-bit input it has
			// stages far past the operand width, up to 1<<31.
			return &rtl.Binary{Op: op, A: a, B: b, W: a.Width()}
		default:
			w := maxInt(a.Width(), b.Width())
			return &rtl.Binary{Op: op, A: rtl.Extend(a, w), B: rtl.Extend(b, w), W: w}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// quickSrc is the property's design. The random expression reads its
// inputs: n is 32 bits wide so shift amounts reach bit 31, and m is 64 bits
// wide so operands reach Mask(64) and the 64-bit carry chain. The batch
// engine computes the expression as the comb function of the wide output o.
const quickSrc = `module q(input [3:0] a, input [5:0] b, input c, input [31:0] n, input [63:0] m, output [63:0] o); assign o = 0; endmodule`

// quickLanes is the number of input assignments each expression is checked
// on, one per batch lane.
const quickLanes = 8

// randValue draws a w-bit input value: a small value, one from 56 to 71
// (shift amounts on either side of 64), a single set bit, only the top two
// bits, or a uniform value. A wide shift amount thus often stays in range,
// and often sets only bits far past the operand width (for the 32-bit
// input, bits 30 and 31).
func randValue(rng *rand.Rand, w int) uint64 {
	switch rng.Intn(5) {
	case 0:
		return uint64(rng.Intn(16)) & rtl.Mask(w)
	case 4:
		return uint64(56+rng.Intn(16)) & rtl.Mask(w)
	case 1:
		return 1 << uint(rng.Intn(w))
	case 2:
		top := min(w, 2)
		return uint64(1+rng.Intn(1<<top-1)) << uint(w-top)
	default:
		return rng.Uint64() & rtl.Mask(w)
	}
}

// checkEvalEncodeBatch is the central cross-implementation property. It
// builds a random expression from seed and computes it on quickLanes random
// input assignments three ways: by interpretation (rtl.Eval), by the CNF
// encoding with pinned inputs, and in a lane of simc's batch compiler. All
// three must agree bit for bit.
func checkEvalEncodeBatch(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	d, err := rtl.ElaborateSource(quickSrc)
	if err != nil {
		return err
	}
	ins := d.Inputs()
	e := randExpr(rng, ins, 4)
	o := d.MustSignal("o")
	d.Comb[o] = rtl.Extend(e, o.Width)
	if err := rtl.Rebind(d); err != nil {
		return err
	}
	prog, err := simc.CompileBatch(d, simc.BatchOptions{})
	if err != nil {
		return err
	}
	s := sat.New()
	u := NewUnroller(s, d)
	u.AddFrame()
	vec, err := u.EncodeExpr(e, 0)
	if err != nil {
		return err
	}

	// Draw one assignment per lane and pack it into the batch inputs: one
	// word per input bit, in Inputs order, bit l of a word in lane l.
	envs := make([]rtl.MapEnv, quickLanes)
	var in []uint64
	for l := range envs {
		envs[l] = rtl.MapEnv{}
		w := 0
		for _, sig := range ins {
			v := randValue(rng, sig.Width)
			envs[l][sig] = v
			for k := 0; k < sig.Width; k, w = k+1, w+1 {
				if l == 0 {
					in = append(in, 0)
				}
				in[w] |= (v >> uint(k) & 1) << uint(l)
			}
		}
	}
	m := simc.NewBatchMachine(prog)
	m.Settle(in)
	lanes := m.Bits(o, nil)

	for l, env := range envs {
		want := rtl.Eval(e, env)
		var assumps []sat.Lit
		for _, sig := range ins {
			sv, err := u.SignalVec(0, sig)
			if err != nil {
				return err
			}
			for bit, lit := range sv {
				if (env[sig]>>uint(bit))&1 == 1 {
					assumps = append(assumps, lit)
				} else {
					assumps = append(assumps, lit.Neg())
				}
			}
		}
		if st := s.Solve(assumps...); st != sat.Sat {
			return fmt.Errorf("%s: pinned inputs give %v, want SAT", rtl.String(e), st)
		}
		var enc uint64
		for bit, lit := range vec {
			if s.ValueLit(lit) {
				enc |= 1 << uint(bit)
			}
		}
		if batch := simc.LaneValue(lanes, l); enc != want || batch != want {
			vals := make([]string, len(ins))
			for i, sig := range ins {
				vals[i] = fmt.Sprintf("%s=%#x", sig.Name, env[sig])
			}
			return fmt.Errorf("%s at %s: Eval=%#x CNF=%#x batch=%#x",
				rtl.String(e), strings.Join(vals, " "), want, enc, batch)
		}
	}
	return nil
}

// TestQuickEvalEncodeEquivalence runs checkEvalEncodeBatch on random seeds.
func TestQuickEvalEncodeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkEvalEncodeBatch(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEvalEncodeBatch drives checkEvalEncodeBatch from fuzzed seeds; its
// seed corpus runs under plain go test. Run it with
//
//	go test -run '^$' -fuzz FuzzEvalEncodeBatch -fuzztime 30s -parallel 2 ./internal/cnf
func FuzzEvalEncodeBatch(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkEvalEncodeBatch(seed); err != nil {
			t.Fatal(err)
		}
	})
}

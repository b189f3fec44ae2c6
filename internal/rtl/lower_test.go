package rtl

import (
	"math/rand"
	"testing"
)

// evalGates is a gate algebra over plain booleans: Lower with it computes an
// expression's value directly, to compare against Eval.
type evalGates struct{ env MapEnv }

func (evalGates) False() bool           { return false }
func (evalGates) True() bool            { return true }
func (evalGates) Not(x bool) bool       { return !x }
func (evalGates) And(x, y bool) bool    { return x && y }
func (evalGates) Or(x, y bool) bool     { return x || y }
func (evalGates) Xor(x, y bool) bool    { return x != y }
func (evalGates) Mux(c, t, f bool) bool { return c && t || !c && f }
func (g evalGates) Ref(sig *Signal) ([]bool, error) {
	// Raw bits past the width, which Lower must drop as Eval does.
	v := make([]bool, 64)
	for i := range v {
		v[i] = g.env[sig]>>uint(i)&1 == 1
	}
	return v, nil
}

// TestLowerMatchesEvalOnWidthMismatches checks Lower against Eval on
// hand-built expressions whose widths the elaborator never produces: a
// result wider or narrower than its operand, a left shift that widens, a
// right shift that narrows, a concat wider than its width, and out-of-range
// selects and slices.
func TestLowerMatchesEvalOnWidthMismatches(t *testing.T) {
	a := &Signal{Name: "a", Width: 8}
	b := &Signal{Name: "b", Width: 7}
	ra, rb := &Ref{Sig: a}, &Ref{Sig: b}
	exprs := []Expr{
		&Unary{Op: OpNot, X: ra, W: 12},
		&Unary{Op: OpNot, X: ra, W: 3},
		&Unary{Op: OpNeg, X: ra, W: 12},
		&Binary{Op: OpShl, A: ra, B: rb, W: 16},
		&Binary{Op: OpShr, A: ra, B: rb, W: 4},
		&Binary{Op: OpShl, A: ra, B: rb, W: 64},
		&Binary{Op: OpAdd, A: ra, B: rb, W: 9},
		&Binary{Op: OpMul, A: ra, B: rb, W: 15},
		&Binary{Op: OpLt, A: ra, B: rb, W: 1},
		&Binary{Op: OpEq, A: ra, B: rb, W: 1},
		&Concat{Parts: []Expr{ra, rb, NewConst(5, 3)}, W: 10},
		&Select{X: ra, Bit: 11},
		&Slice{X: ra, MSB: 11, LSB: 6},
		&Mux{Cond: &Binary{Op: OpGe, A: ra, B: rb, W: 1}, T: ra, F: rb, W: 5},
	}
	rng := rand.New(rand.NewSource(1))
	for _, e := range exprs {
		for i := 0; i < 64; i++ {
			env := MapEnv{a: rng.Uint64(), b: rng.Uint64()}
			if i%4 == 0 {
				env[b] = uint64(rng.Intn(20))
			}
			bits, err := Lower[bool](evalGates{env}, e)
			if err != nil {
				t.Fatalf("%s: %v", String(e), err)
			}
			if len(bits) != e.Width() {
				t.Fatalf("%s: %d bits, width %d", String(e), len(bits), e.Width())
			}
			var got uint64
			for k, bit := range bits {
				if bit && k < 64 {
					got |= 1 << uint(k)
				}
			}
			if want := Eval(e, env); got != want {
				t.Fatalf("%s at a=%#x b=%#x: Lower=%#x Eval=%#x", String(e), env[a], env[b], got, want)
			}
		}
	}
}

package core

import (
	"context"
	"testing"

	"goldmine/internal/sim"
)

func TestMinimizeCtxShrinks(t *testing.T) {
	e := mustEngine(t, arbiterSrc, DefaultConfig())
	res, err := e.MineOutputByName(context.Background(), "gnt0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) == 0 {
		t.Fatal("need failed assertions to minimize against")
	}
	for i, rec := range res.Failed {
		if i >= len(res.Ctx) {
			break
		}
		ctx := res.Ctx[i]
		// Pad the ctx with irrelevant leading noise: minimization must strip it.
		padded := sim.Stimulus{{"req1": 1}, {"req0": 1, "req1": 1}}
		padded = append(padded, ctx.Clone()...)
		min, err := e.MinimizeCtx(context.Background(), rec.Assertion, padded)
		if err != nil {
			// The padded prefix may change register state so the original
			// window no longer violates: acceptable, try the raw ctx then.
			min, err = e.MinimizeCtx(context.Background(), rec.Assertion, ctx)
			if err != nil {
				t.Fatalf("ctx %d: %v", i, err)
			}
		}
		if len(min) > len(padded) {
			t.Errorf("ctx %d grew: %d -> %d", i, len(padded), len(min))
		}
		// The minimized pattern still violates.
		tr, err := sim.Simulate(e.D, min)
		if err != nil {
			t.Fatal(err)
		}
		if !violatesAt(tr, rec.Assertion, len(min)-(rec.Assertion.Consequent.Offset+1)) {
			t.Errorf("ctx %d: minimized stimulus no longer violates %s", i, rec.Assertion)
		}
		// Minimality of length: window-size lower bound respected.
		if len(min) < rec.Assertion.Consequent.Offset+1 {
			t.Errorf("ctx %d too short: %d cycles", i, len(min))
		}
	}
}

func TestMinimizeCtxZeroesIrrelevantInputs(t *testing.T) {
	e := mustEngine(t, arbiterSrc, DefaultConfig())
	res, err := e.MineOutputByName(context.Background(), "gnt0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalBefore, totalAfter := 0, 0
	for i, rec := range res.Failed {
		if i >= len(res.Ctx) {
			break
		}
		min, err := e.MinimizeCtx(context.Background(), rec.Assertion, res.Ctx[i])
		if err != nil {
			continue
		}
		for c := range res.Ctx[i] {
			totalBefore += len(res.Ctx[i][c])
		}
		for c := range min {
			totalAfter += len(min[c])
		}
	}
	if totalAfter > totalBefore {
		t.Errorf("minimization increased assignments: %d -> %d", totalBefore, totalAfter)
	}
}

func TestMinimizeCtxErrors(t *testing.T) {
	e := mustEngine(t, arbiterSrc, DefaultConfig())
	res, err := e.MineOutputByName(context.Background(), "gnt0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Proved[0].Assertion // true assertion: nothing violates it
	if _, err := e.MinimizeCtx(context.Background(), a, sim.Stimulus{{"rst": 1}, {}, {}}); err == nil {
		t.Error("non-violating stimulus should error")
	}
	if _, err := e.MinimizeCtx(context.Background(), a, nil); err == nil {
		t.Error("empty stimulus should error")
	}
}

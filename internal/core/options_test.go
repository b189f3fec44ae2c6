package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/telemetry"
)

func TestOptionsDefaults(t *testing.T) {
	cfg, err := NewOptions().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	if cfg.Window != want.Window || cfg.MaxIterations != want.MaxIterations ||
		cfg.MaxChecks != want.MaxChecks || cfg.MC != want.MC {
		t.Fatalf("bare Build() diverges from DefaultConfig: %+v vs %+v", cfg, want)
	}
}

func TestOptionsSetters(t *testing.T) {
	cfg, err := NewOptions().
		Window(3).
		MaxIterations(7).
		MaxChecks(11).
		Workers(4).
		Batched(true).
		FullCtxTrace(true).
		SignalCone(true).
		Timeout(time.Minute).
		IterationTimeout(time.Second).
		CheckTimeout(time.Millisecond).
		MaxWork(99).
		BMCDepth(5).
		Induction(6).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 3 || cfg.MaxIterations != 7 || cfg.MaxChecks != 11 ||
		cfg.Workers != 4 || !cfg.BatchedChecks || !cfg.AddFullCtxTrace ||
		!cfg.SignalCone ||
		cfg.Timeout != time.Minute || cfg.IterationTimeout != time.Second ||
		cfg.MC.CheckTimeout != time.Millisecond || cfg.MC.MaxWork != 99 ||
		cfg.MC.MaxBMCDepth != 5 || cfg.MC.MaxInduction != 6 {
		t.Fatalf("setters lost values: %+v", cfg)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		o    *Options
		want []string
	}{
		{"negative window", NewOptions().Window(-1), []string{"window"}},
		{"window past the offset bound", NewOptions().Window(assertion.MaxOffset + 1), []string{"window"}},
		{"negative iterations", NewOptions().MaxIterations(-2), []string{"max iterations"}},
		{"negative workers", NewOptions().Workers(-1), []string{"workers"}},
		{"zero BMC depth", NewOptions().BMCDepth(0), []string{"BMC depth"}},
		{"negative timeout", NewOptions().Timeout(-time.Second), []string{"timeouts"}},
		{"iteration budget above overall", NewOptions().Timeout(time.Second).IterationTimeout(time.Minute),
			[]string{"iteration timeout"}},
		{"check budget above iteration", NewOptions().IterationTimeout(time.Second).CheckTimeout(time.Minute),
			[]string{"check timeout"}},
		{"all violations reported at once", NewOptions().Window(-1).Workers(-1).BMCDepth(0),
			[]string{"window", "workers", "BMC depth"}},
	}
	for _, tc := range cases {
		_, err := tc.o.Build()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}

// TestOptionsPortfolioRemoved: the racing portfolio is gone, so Portfolio
// builds only for the widths that never raced, and never touches Config.
func TestOptionsPortfolioRemoved(t *testing.T) {
	for _, n := range []int{0, 1} {
		cfg, err := NewOptions().Portfolio(n).Build()
		if err != nil {
			t.Fatalf("Portfolio(%d): %v", n, err)
		}
		if want := DefaultConfig(); cfg.MC != want.MC {
			t.Fatalf("Portfolio(%d) changed the checker options: %+v", n, cfg.MC)
		}
	}
	for _, n := range []int{2, 3, -1} {
		_, err := NewOptions().Portfolio(n).Build()
		if err == nil || !strings.Contains(err.Error(), "racing portfolio removed") {
			t.Errorf("Portfolio(%d): err = %v, want a racing portfolio removed error", n, err)
		}
	}
}

// TestOptionsRemovedSwitches: the fresh-session, interpreter and eager-CNF
// paths are gone, so Incremental, Compiled and CoI build only with true,
// never touch Config, and each false is rejected with the removed path named.
func TestOptionsRemovedSwitches(t *testing.T) {
	cfg, err := NewOptions().Incremental(true).Compiled(true).CoI(true).Build()
	if err != nil {
		t.Fatalf("true switches: %v", err)
	}
	if want := DefaultConfig(); cfg.MC != want.MC || cfg.Window != want.Window || cfg.MaxIterations != want.MaxIterations {
		t.Fatalf("true switches changed the config: %+v", cfg)
	}
	for name, o := range map[string]*Options{
		"fresh-session checking removed": NewOptions().Incremental(false),
		"interpreter simulation removed": NewOptions().Compiled(false),
		"eager whole-design CNF removed": NewOptions().CoI(false),
	} {
		_, err := o.Build()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("err = %v, want a %q error", err, name)
		}
	}
	_, err = NewOptions().Incremental(false).Compiled(false).CoI(false).Build()
	if err == nil || strings.Count(err.Error(), "removed") != 3 {
		t.Errorf("all three false: err = %v, want three removed paths", err)
	}
}

// TestOptionsEngineTelemetry checks the builder's Engine wires the tracer:
// counters and span histograms accumulate during mining, and the tracer never
// contaminates the Config (cache-key fingerprints must not see it).
func TestOptionsEngineTelemetry(t *testing.T) {
	b, err := designs.Get("arbiter2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.New(reg, nil)
	eng, err := NewOptions().Window(b.Window).Telemetry(tr).Engine(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MineOutputByName(context.Background(), "gnt0", 0, b.Directed()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["mine.outputs"] != 1 {
		t.Errorf("mine.outputs = %d, want 1", snap.Counters["mine.outputs"])
	}
	if snap.Counters["mine.iterations"] == 0 {
		t.Error("mine.iterations never incremented")
	}
	if snap.Counters["mc.checks"] == 0 {
		t.Error("mc.checks never incremented")
	}
	if _, ok := snap.Histograms["mine.output.us"]; !ok {
		t.Error("no mine.output.us span histogram")
	}
}

package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/designs"
	"goldmine/internal/mc"
	"goldmine/internal/sched"
	"goldmine/internal/sim"
)

// mineBench mines every output bit of a benchmark design at the given worker
// count, on a new engine that shares cache when it is non-nil, and returns
// the run's canonical artifact string.
func mineBench(t *testing.T, name string, workers, maxIter int, batched bool, cache *sched.VerdictCache) (*Result, string) {
	t.Helper()
	b, err := designs.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = b.Window
	cfg.Workers = workers
	cfg.BatchedChecks = batched
	cfg.Cache = cache
	if maxIter > 0 {
		cfg.MaxIterations = maxIter
	}
	eng, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seed sim.Stimulus
	if b.Directed != nil {
		seed = b.Directed()
	}
	res, err := eng.MineAll(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Canonical()
}

// TestParallelDeterminism is the -j 1 ≡ -j N contract: the canonical mining
// artifacts must be byte-identical for any worker count, in both immediate
// and batched-check modes.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		design  string
		maxIter int
		batched bool
	}{
		{"arbiter2", 0, false},
		{"arbiter2", 0, true},
		{"arbiter4", 6, false},
		{"fetch", 3, true},
		{"arbiter4", 0, false},
		{"fetch", 0, false},
		{"decode", 0, false},
		{"wb_stage", 0, false},
	}
	for _, tc := range cases {
		seqRes, seq := mineBench(t, tc.design, 1, tc.maxIter, tc.batched, nil)
		parRes, par := mineBench(t, tc.design, 4, tc.maxIter, tc.batched, nil)
		if seq != par {
			t.Errorf("%s (batched=%v): -j1 and -j4 artifacts differ:\n-j1:\n%s\n-j4:\n%s",
				tc.design, tc.batched, seq, par)
		}
		if seqRes.Sched == nil || parRes.Sched == nil {
			t.Fatalf("%s: missing Sched telemetry", tc.design)
		}
		if seqRes.Sched.Workers != 1 {
			t.Errorf("%s: sequential Sched.Workers = %d", tc.design, seqRes.Sched.Workers)
		}
		if parRes.Sched.Workers < 2 {
			t.Errorf("%s: parallel Sched.Workers = %d, want >= 2", tc.design, parRes.Sched.Workers)
		}
		if !strings.Contains(seq, "output") {
			t.Errorf("%s: canonical form looks empty:\n%s", tc.design, seq)
		}
	}
}

// TestCacheHitsOnRemine re-mines the same engine: every decisive verdict of
// the first pass must be served from the cache on the second, with identical
// artifacts.
func TestCacheHitsOnRemine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	e := mustEngine(t, arbiterSrc, cfg)
	first, err := e.MineAll(context.Background(), paperSeed())
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.MineAll(context.Background(), paperSeed())
	if err != nil {
		t.Fatal(err)
	}
	if second.Sched == nil || second.Sched.CacheHits == 0 {
		t.Fatalf("re-mine scored no cache hits: %+v", second.Sched)
	}
	if second.Sched.CacheMisses != 0 {
		t.Errorf("re-mine missed %d times; every decisive verdict should be cached", second.Sched.CacheMisses)
	}
	if first.Canonical() != second.Canonical() {
		t.Error("cached verdicts changed the mining artifacts")
	}
	hits := 0
	for _, o := range second.Outputs {
		hits += o.CacheHits
	}
	if hits == 0 {
		t.Error("per-output CacheHits counters all zero")
	}
}

// TestCacheSharedAcrossEngines: a full mining run on a new engine that
// shares a verdict cache with an identical earlier run answers every check
// from the cache, with identical artifacts, on the arbiters and the pipeline
// stages.
func TestCacheSharedAcrossEngines(t *testing.T) {
	for _, name := range []string{"arbiter2", "arbiter4", "decode", "fetch", "wb_stage"} {
		cache := sched.NewVerdictCache()
		_, cold := mineBench(t, name, 2, 0, false, cache)
		warmRes, warm := mineBench(t, name, 2, 0, false, cache)
		if st := warmRes.Sched; st == nil || st.CacheHits == 0 || st.CacheHitRate != 1 {
			t.Errorf("%s: second engine's cache stats = %+v, want hit rate 1", name, st)
		}
		if warm != cold {
			t.Errorf("%s: the shared cache changed the mining artifacts", name)
		}
	}
}

// TestCacheKeyIncludesOptions proves that checkers with different budgets do
// not share verdicts even through a shared cache.
func TestCacheKeyIncludesOptions(t *testing.T) {
	cache := sched.NewVerdictCache()
	cfg := DefaultConfig()
	cfg.Cache = cache
	e1 := mustEngine(t, arbiterSrc, cfg)
	if _, err := e1.MineAll(context.Background(), paperSeed()); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.MC.MaxBMCDepth++
	e2 := mustEngine(t, arbiterSrc, cfg2)
	r2, err := e2.MineAll(context.Background(), paperSeed())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Sched.CacheHits != 0 {
		t.Fatalf("engines with different MC options shared %d verdicts", r2.Sched.CacheHits)
	}
}

// TestWorkerPanicIsolation corrupts the engine so mining panics outside every
// per-check barrier; the whole-job barrier must degrade the output to a
// StageWorker fault instead of crashing the run.
func TestWorkerPanicIsolation(t *testing.T) {
	e := mustEngine(t, arbiterSrc, DefaultConfig())
	e.compiled = nil // any seeded mining run now nil-derefs before the first check
	res, err := e.MineTargets(context.Background(), e.Targets(), paperSeed())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) == 0 {
		t.Fatal("no outputs returned")
	}
	for _, o := range res.Outputs {
		if len(o.Errors) != 1 || o.Errors[0].Stage != StageWorker {
			t.Fatalf("output %s: errors = %v, want one %s fault", o.Output, o.Errors, StageWorker)
		}
		if o.Converged {
			t.Errorf("output %s: faulted job reported convergence", o.Output)
		}
	}
}

// cancelChecker cancels a shared context after n checks, then delegates.
type cancelChecker struct {
	real   FormalChecker
	cancel context.CancelFunc
	after  int64
	calls  int64
}

func (c *cancelChecker) CheckCtx(ctx context.Context, a *assertion.Assertion) (*mc.Result, error) {
	if atomic.AddInt64(&c.calls, 1) == c.after {
		c.cancel()
	}
	return c.real.CheckCtx(ctx, a)
}

// TestParallelCancellationDrains cancels mid-run with workers in flight: the
// pool must drain cleanly, keep every partial result, and mark the run
// interrupted.
func TestParallelCancellationDrains(t *testing.T) {
	b, err := designs.Get("arbiter4")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Window = b.Window
	cfg.Workers = 4
	eng, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng.SetChecker(&cancelChecker{real: eng.Checker, cancel: cancel, after: 5})
	res, err := eng.MineTargets(ctx, eng.Targets(), b.Directed())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run not marked interrupted")
	}
	for _, o := range res.Outputs {
		if o.Converged && o.Interrupted {
			t.Errorf("output %s: both converged and interrupted", o.Output)
		}
	}
}

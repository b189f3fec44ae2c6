package core

import (
	"fmt"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
	"goldmine/internal/telemetry"
)

// Options is a validated builder over Config: it starts from DefaultConfig,
// applies each setter, and Build rejects out-of-range or mutually
// contradictory settings with one combined error instead of letting a bad
// knob surface as a confusing mining result. It unifies the three previously
// separate knob surfaces — Config, mc.Options, and the worker counts — behind
// one chainable API; the goldmine CLI flags map 1:1 onto these setters.
//
//	cfg, err := core.NewOptions().
//		Window(2).
//		Workers(8).
//		CheckTimeout(time.Second).
//		Build()
//
// The zero-cost escape hatch remains: Config literals are still accepted by
// NewEngine for callers that need a knob the builder does not expose.
type Options struct {
	cfg       Config
	tel       *telemetry.Tracer
	portfolio int // see Portfolio; never reaches Config
	// removed names each deleted path a false Incremental, Compiled or CoI
	// asked for; Build rejects them. Never reaches Config.
	removed []string
}

// NewOptions starts a builder from DefaultConfig.
func NewOptions() *Options {
	return &Options{cfg: DefaultConfig()}
}

// Window sets the mining window length w (Section 2.1 of the paper).
func (o *Options) Window(w int) *Options { o.cfg.Window = w; return o }

// MaxIterations bounds refinement rounds per output bit (0 = default 64).
func (o *Options) MaxIterations(n int) *Options { o.cfg.MaxIterations = n; return o }

// MaxChecks bounds the formal checks per output bit (0 = default 4000).
func (o *Options) MaxChecks(n int) *Options { o.cfg.MaxChecks = n; return o }

// Workers sets the parallelism degree of MineAll/MineTargets
// (<= 1 mines sequentially; artifacts are identical for any value).
func (o *Options) Workers(n int) *Options { o.cfg.Workers = n; return o }

// Batched enables the Section 7 batched-check optimization.
func (o *Options) Batched(b bool) *Options { o.cfg.BatchedChecks = b; return o }

// FullCtxTrace adds every counterexample window to the dataset instead of
// only the violating one.
func (o *Options) FullCtxTrace(b bool) *Options { o.cfg.AddFullCtxTrace = b; return o }

// SignalCone falls back to signal-granular cone-of-influence analysis.
func (o *Options) SignalCone(b bool) *Options { o.cfg.SignalCone = b; return o }

// Incremental, Compiled and CoI are what remains of three removed switches:
// every check takes a pooled mc.Session, simulation always runs on the
// 64-lane batch engine, and the model checker always encodes the cone of
// influence. They write nothing into Config, and Build rejects false with an
// error naming the removed path. They stay only because the perfbench
// harness (perfbench/workloads.go, mineOptions) still calls them with true;
// the next change to that harness drops the calls and these setters together.
func (o *Options) Incremental(b bool) *Options {
	return o.keep(b, "fresh-session checking removed: Incremental(false)")
}

// Compiled: see Incremental.
func (o *Options) Compiled(b bool) *Options {
	return o.keep(b, "interpreter simulation removed: Compiled(false)")
}

// CoI: see Incremental.
func (o *Options) CoI(b bool) *Options {
	return o.keep(b, "eager whole-design CNF removed: CoI(false)")
}

func (o *Options) keep(b bool, removed string) *Options {
	if !b {
		o.removed = append(o.removed, removed)
	}
	return o
}

// Timeout bounds one whole MineOutput call by wall clock (0 = none).
func (o *Options) Timeout(d time.Duration) *Options { o.cfg.Timeout = d; return o }

// IterationTimeout bounds a single refinement iteration (0 = none).
func (o *Options) IterationTimeout(d time.Duration) *Options { o.cfg.IterationTimeout = d; return o }

// CheckTimeout bounds one formal check by wall clock (0 = none).
func (o *Options) CheckTimeout(d time.Duration) *Options { o.cfg.MC.CheckTimeout = d; return o }

// MaxWork bounds the deterministic work units of one formal check (0 = none).
func (o *Options) MaxWork(n int64) *Options { o.cfg.MC.MaxWork = n; return o }

// BMCDepth bounds SAT bounded model checking.
func (o *Options) BMCDepth(n int) *Options { o.cfg.MC.MaxBMCDepth = n; return o }

// Induction bounds the k of k-induction.
func (o *Options) Induction(n int) *Options { o.cfg.MC.MaxInduction = n; return o }

// Portfolio is what remains of the removed racing SAT portfolio: every check
// runs one solver, so only the widths that never raced, 0 and 1, build; Build
// rejects any other. It writes nothing into Config. It stays only because the
// perfbench harness (perfbench/workloads.go, mineOptions) still calls
// Portfolio(0); the next change to that harness drops the call and this
// setter together.
func (o *Options) Portfolio(n int) *Options { o.portfolio = n; return o }

// MC replaces the full model-checker option block for knobs without a
// dedicated setter (explicit-engine bit limits).
func (o *Options) MC(opts mc.Options) *Options { o.cfg.MC = opts; return o }

// Cache supplies a shared verdict cache (nil keeps a private one).
func (o *Options) Cache(c *sched.VerdictCache) *Options { o.cfg.Cache = c; return o }

// Telemetry wires the engine built by Engine into a tracer (nil = disabled).
// Recorded here rather than in Config so the tracer never enters the
// structures whose rendering feeds cache-key fingerprints.
func (o *Options) Telemetry(tr *telemetry.Tracer) *Options { o.tel = tr; return o }

// Build validates the accumulated settings and returns the Config. All
// violations are reported at once.
func (o *Options) Build() (Config, error) {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	c := o.cfg
	if c.Window < 0 || c.Window > assertion.MaxOffset {
		bad("window must be in 0..%d (got %d)", assertion.MaxOffset, c.Window)
	}
	if c.MaxIterations < 0 {
		bad("max iterations must be >= 0 (got %d)", c.MaxIterations)
	}
	if c.MaxChecks < 0 {
		bad("max checks must be >= 0 (got %d)", c.MaxChecks)
	}
	if c.Workers < 0 {
		bad("workers must be >= 0 (got %d)", c.Workers)
	}
	if c.Timeout < 0 || c.IterationTimeout < 0 || c.MC.CheckTimeout < 0 {
		bad("timeouts must be >= 0")
	}
	if c.MC.MaxWork < 0 {
		bad("max work must be >= 0 (got %d)", c.MC.MaxWork)
	}
	if c.MC.MaxBMCDepth < 1 {
		bad("BMC depth must be >= 1 (got %d)", c.MC.MaxBMCDepth)
	}
	if c.MC.MaxInduction < 0 {
		bad("induction bound must be >= 0 (got %d)", c.MC.MaxInduction)
	}
	if o.portfolio != 0 && o.portfolio != 1 {
		bad("racing portfolio removed: Portfolio(%d) must be 0 or 1", o.portfolio)
	}
	errs = append(errs, o.removed...)
	// Contradictions between the budget layers: an inner budget wider than an
	// outer one means the inner bound can never fire — almost certainly a
	// mistaken unit, so reject instead of silently ignoring the knob.
	if c.Timeout > 0 && c.IterationTimeout > c.Timeout {
		bad("iteration timeout %v exceeds overall timeout %v", c.IterationTimeout, c.Timeout)
	}
	if c.IterationTimeout > 0 && c.MC.CheckTimeout > c.IterationTimeout {
		bad("check timeout %v exceeds iteration timeout %v", c.MC.CheckTimeout, c.IterationTimeout)
	}
	if c.Timeout > 0 && c.MC.CheckTimeout > c.Timeout {
		bad("check timeout %v exceeds overall timeout %v", c.MC.CheckTimeout, c.Timeout)
	}
	if len(errs) > 0 {
		return Config{}, fmt.Errorf("core options: %s", joinErrs(errs))
	}
	return c, nil
}

func joinErrs(errs []string) string {
	s := errs[0]
	for _, e := range errs[1:] {
		s += "; " + e
	}
	return s
}

// Engine validates the settings and builds an engine for the design,
// applying the Telemetry wiring when one was supplied.
func (o *Options) Engine(d *rtl.Design) (*Engine, error) {
	cfg, err := o.Build()
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(d, cfg)
	if err != nil {
		return nil, err
	}
	if o.tel != nil {
		e.SetTelemetry(o.tel)
	}
	return e, nil
}

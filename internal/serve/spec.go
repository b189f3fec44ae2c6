package serve

import (
	"context"
	"fmt"
	"time"

	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// JobSpec is the client-supplied description of one mining job. The fields
// mirror the goldmine CLI flags 1:1 and resolve to the same defaults, so a
// job's canonical artifact is byte-identical to a fresh `goldmine -canonical`
// run with the equivalent flags — the property the recovery smoke test pins.
type JobSpec struct {
	// Tenant names the submitting tenant (budget/queue accounting key).
	Tenant string `json:"tenant"`
	// Design is a benchmark name; Source is inline Verilog. Exactly one.
	Design string `json:"design,omitempty"`
	Source string `json:"source,omitempty"`
	// Output restricts mining to one signal (default: all outputs), Bit to
	// one bit of it (nil: all bits).
	Output string `json:"output,omitempty"`
	Bit    *int   `json:"bit,omitempty"`
	// Seed is the seed stimulus spec: directed | random:<cycles> | none
	// (default directed, like the CLI).
	Seed string `json:"seed,omitempty"`
	// Window overrides the mining window (nil: the benchmark's default).
	Window *int `json:"window,omitempty"`
	// MaxIter bounds refinement iterations (0: the engine default, 64).
	MaxIter int `json:"max_iter,omitempty"`
	// Workers is the intra-job parallelism degree (0: 1; artifacts are
	// identical for any value). Capped by the server's MaxJobWorkers.
	Workers int `json:"workers,omitempty"`
	// Batched enables the Section 7 batched-check optimization.
	Batched bool `json:"batched,omitempty"`
	// FullCtx adds every counterexample window to the dataset.
	FullCtx bool `json:"full_ctx,omitempty"`
	// TimeoutMS bounds the job's wall clock (0: server default). The
	// effective deadline is further capped by the tenant's remaining budget.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CheckTimeoutMS bounds one formal check (0: none).
	CheckTimeoutMS int64 `json:"check_timeout_ms,omitempty"`
}

// Validate rejects malformed specs with errors that name the fields, before
// the job consumes any queue slot or budget.
func (s *JobSpec) Validate() error {
	switch {
	case s.Tenant == "":
		return fmt.Errorf("spec: tenant is required")
	case s.Design != "" && s.Source != "":
		return fmt.Errorf("spec: design and source are mutually exclusive")
	case s.Design == "" && s.Source == "":
		return fmt.Errorf("spec: need design (a benchmark name) or source (inline Verilog)")
	}
	if s.Bit != nil && *s.Bit >= 0 && s.Output == "" {
		return fmt.Errorf("spec: bit needs output to name the signal it indexes")
	}
	if s.Window != nil && *s.Window < 0 {
		return fmt.Errorf("spec: window must be >= 0, got %d", *s.Window)
	}
	if s.MaxIter < 0 || s.Workers < 0 || s.TimeoutMS < 0 || s.CheckTimeoutMS < 0 {
		return fmt.Errorf("spec: max_iter, workers, timeout_ms and check_timeout_ms must be >= 0")
	}
	if err := stimgen.CheckSeed(s.Seed); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// resolved is a spec elaborated into everything a mining run needs.
type resolved struct {
	design  *rtl.Design
	cfg     core.Config
	seed    sim.Stimulus
	targets []core.Target
	// poolKey identifies engines that are interchangeable for this job:
	// same design structure, same checker options, same engine toggles.
	poolKey string
}

// resolve elaborates the design, maps the spec onto the validated core
// options builder with the same defaults as the goldmine CLI, and derives the
// seed and target set. maxWorkers caps the per-job parallelism.
func resolve(spec *JobSpec, maxWorkers int) (*resolved, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var (
		d     *rtl.Design
		bench *designs.Benchmark
		err   error
	)
	if spec.Design != "" {
		bench, err = designs.Get(spec.Design)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		d, err = bench.Design()
	} else {
		d, err = rtl.ElaborateSource(spec.Source)
	}
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	opts := core.NewOptions().
		Batched(spec.Batched).
		FullCtxTrace(spec.FullCtx).
		Workers(workers).
		CheckTimeout(time.Duration(spec.CheckTimeoutMS) * time.Millisecond)
	if spec.MaxIter > 0 {
		opts.MaxIterations(spec.MaxIter)
	}
	if spec.Window != nil {
		opts.Window(*spec.Window)
	} else if bench != nil {
		opts.Window(bench.Window)
	}
	cfg, err := opts.Build()
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	var directed func() sim.Stimulus
	if bench != nil {
		directed = bench.Directed
	}
	seed, err := stimgen.SeedStimulus(d, directed, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	var targets []core.Target
	addTarget := func(sig *rtl.Signal) {
		if spec.Bit != nil && *spec.Bit >= 0 {
			targets = append(targets, core.Target{Output: sig, Bit: *spec.Bit})
			return
		}
		for b := 0; b < sig.Width; b++ {
			targets = append(targets, core.Target{Output: sig, Bit: b})
		}
	}
	if spec.Output != "" {
		sig := d.Signal(spec.Output)
		if sig == nil {
			return nil, fmt.Errorf("spec: no signal %q in design %s", spec.Output, d.Name)
		}
		addTarget(sig)
	} else {
		for _, sig := range d.Outputs() {
			addTarget(sig)
		}
	}
	return &resolved{
		design:  d,
		cfg:     cfg,
		seed:    seed,
		targets: targets,
		poolKey: poolKey(d, cfg),
	}, nil
}

// Artifact is the durable result of one completed job: the canonical mining
// artifact (the determinism contract's rendering, byte-identical to
// `goldmine -canonical`) plus a summary. It is what the WAL persists and what
// a restarted daemon re-serves without recomputation.
type Artifact struct {
	Design    string `json:"design"`
	Canonical string `json:"canonical"`
	Proved    int    `json:"proved"`
	Ctx       int    `json:"ctx"`
	Unknown   int    `json:"unknown"`
	Faults    int    `json:"faults"`
	Converged bool   `json:"converged"`
	// Interrupted marks a partial artifact: the job's deadline or the
	// tenant's remaining budget expired and the loop stopped cleanly.
	Interrupted bool    `json:"interrupted"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Cache telemetry of this job's run against the shared cross-run cache.
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	ChecksDeduped int64 `json:"checks_deduped"`
}

// makeArtifact condenses a mining result into its durable form.
func makeArtifact(res *core.Result) *Artifact {
	a := &Artifact{
		Design:      res.Design.Name,
		Canonical:   res.Canonical(),
		Converged:   res.Converged(),
		Interrupted: res.Interrupted,
		ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1000,
	}
	for _, o := range res.Outputs {
		a.Proved += len(o.Proved)
		a.Ctx += len(o.Ctx)
		a.Unknown += len(o.Unknown)
		a.Faults += len(o.Errors)
	}
	if res.Sched != nil {
		a.CacheHits = res.Sched.CacheHits
		a.CacheMisses = res.Sched.CacheMisses
		a.ChecksDeduped = res.Sched.ChecksDeduped
	}
	return a
}

// runCore is the default job runner: resolve the spec, check an engine out of
// the pool (or build one wired to the shared verdict cache), mine, and return
// the engine for the next job of the same design+options.
func (s *Server) runCore(ctx context.Context, spec *JobSpec) (*Artifact, error) {
	r, err := resolve(spec, s.cfg.MaxJobWorkers)
	if err != nil {
		return nil, err
	}
	eng, err := s.pool.acquire(r.poolKey, func() (*core.Engine, error) {
		cfg := r.cfg
		cfg.Cache = s.cache
		e, err := core.NewEngine(r.design, cfg)
		if err != nil {
			return nil, err
		}
		if s.cfg.Tracer != nil {
			e.SetTelemetry(s.cfg.Tracer)
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	// A pooled engine was built on an earlier job's elaboration of the same
	// design, so this job's target signals belong to a different (structurally
	// identical) rtl.Design instance. Remap them by name onto the engine's
	// design — mining against foreign signal pointers corrupts the run.
	targets := r.targets
	if eng.D != r.design {
		targets = make([]core.Target, len(r.targets))
		for i, tg := range r.targets {
			sig := eng.D.Signal(tg.Output.Name)
			if sig == nil {
				return nil, fmt.Errorf("spec: pooled engine lacks signal %q", tg.Output.Name)
			}
			targets[i] = core.Target{Output: sig, Bit: tg.Bit}
		}
	}
	// A panic escaping MineTargets leaves the engine's internals in an
	// unknown state: let the panic pass to runJob's recover barrier and drop
	// the engine instead of repooling it.
	repool := false
	defer func() {
		if repool {
			s.pool.release(r.poolKey, eng)
		}
	}()
	res, err := eng.MineTargets(ctx, targets, r.seed)
	repool = true
	if err != nil {
		return nil, err
	}
	// Ingest into the cross-run corpus while the live result still has the
	// assertion objects — makeArtifact condenses them to the canonical
	// string. The tenant labels the run's provenance.
	s.corpus.IngestResult(spec.Tenant, res)
	return makeArtifact(res), nil
}

package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// Request is one mining request: the design and the knobs of the mining
// loop. The goldmine CLI fills it from its flags and goldmined from a job's
// JSON, and both mine what Resolve returns, so a job's canonical artifact is
// byte-identical to a fresh `goldmine -canonical` run with the equivalent
// flags — the property the recovery smoke test pins.
type Request struct {
	// Design is a benchmark name; Source is inline Verilog. Exactly one.
	Design string `json:"design,omitempty"`
	Source string `json:"source,omitempty"`
	// Output restricts mining to one signal (default: all outputs), Bit to
	// one bit of it (nil or negative: all bits).
	Output string `json:"output,omitempty"`
	Bit    *int   `json:"bit,omitempty"`
	// Seed is the seed stimulus spec: directed | random:<cycles> | none
	// (default directed).
	Seed string `json:"seed,omitempty"`
	// Window overrides the mining window (nil: the benchmark's default).
	Window *int `json:"window,omitempty"`
	// MaxIter bounds refinement iterations (0: the engine default, 64).
	MaxIter int `json:"max_iter,omitempty"`
	// Workers is the mining parallelism degree (0: 1; artifacts are
	// identical for any value).
	Workers int `json:"workers,omitempty"`
	// Batched enables the Section 7 batched-check optimization.
	Batched bool `json:"batched,omitempty"`
	// FullCtx adds every counterexample window to the dataset.
	FullCtx bool `json:"full_ctx,omitempty"`
	// CheckTimeoutMS bounds one formal check, in milliseconds (0: none;
	// fractions allowed).
	CheckTimeoutMS float64 `json:"check_timeout_ms,omitempty"`
}

// JobSpec is the client-supplied description of one mining job: the
// daemon's own fields around an embedded Request, whose fields stay at the
// top level of the JSON form.
type JobSpec struct {
	// Tenant names the submitting tenant (budget/queue accounting key).
	Tenant string `json:"tenant"`
	Request
	// TimeoutMS bounds the job's wall clock (0: server default). The
	// effective deadline is further capped by the tenant's remaining budget.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Validate rejects malformed specs with errors that name the fields, before
// the job consumes any queue slot or budget.
func (s *JobSpec) Validate() error {
	if s.Tenant == "" {
		return fmt.Errorf("spec: tenant is required")
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("spec: timeout_ms must be >= 0")
	}
	return s.Request.Validate()
}

// Validate rejects malformed requests with errors that name the fields.
func (r *Request) Validate() error {
	switch {
	case r.Design != "" && r.Source != "":
		return fmt.Errorf("spec: design and source are mutually exclusive")
	case r.Design == "" && r.Source == "":
		return fmt.Errorf("spec: need design (a benchmark name) or source (inline Verilog)")
	}
	if r.Bit != nil && *r.Bit >= 0 && r.Output == "" {
		return fmt.Errorf("spec: bit needs output to name the signal it indexes")
	}
	if r.Window != nil && *r.Window < 0 {
		return fmt.Errorf("spec: window must be >= 0, got %d", *r.Window)
	}
	if r.MaxIter < 0 || r.Workers < 0 || r.CheckTimeoutMS < 0 {
		return fmt.Errorf("spec: max_iter, workers and check_timeout_ms must be >= 0")
	}
	if err := stimgen.CheckSeed(r.Seed); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// Resolved is a request elaborated into everything a mining run needs.
type Resolved struct {
	Design  *rtl.Design
	Config  core.Config
	Seed    sim.Stimulus
	Targets []core.Target
}

// Resolve validates the request, loads its design, builds the engine
// configuration (the benchmark's window unless Window is set) and derives
// the seed stimulus and the targets: every bit of every output, of Output
// alone, or only its bit Bit.
func (r *Request) Resolve() (*Resolved, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	bench, d, err := designs.Load(r.Design, r.Source)
	if err != nil {
		return nil, err
	}
	opts := core.NewOptions().
		Batched(r.Batched).
		FullCtxTrace(r.FullCtx).
		Workers(max(r.Workers, 1)).
		CheckTimeout(time.Duration(math.Round(r.CheckTimeoutMS * float64(time.Millisecond))))
	if r.MaxIter > 0 {
		opts.MaxIterations(r.MaxIter)
	}
	if r.Window != nil {
		opts.Window(*r.Window)
	} else if bench != nil {
		opts.Window(bench.Window)
	}
	cfg, err := opts.Build()
	if err != nil {
		return nil, err
	}
	var directed func() sim.Stimulus
	if bench != nil {
		directed = bench.Directed
	}
	seed, err := stimgen.SeedStimulus(d, directed, r.Seed)
	if err != nil {
		return nil, err
	}

	outs := d.Outputs()
	if r.Output != "" {
		sig := d.Signal(r.Output)
		if sig == nil {
			return nil, fmt.Errorf("no signal %q in design %s", r.Output, d.Name)
		}
		outs = []*rtl.Signal{sig}
	}
	var targets []core.Target
	for _, sig := range outs {
		if r.Bit != nil && *r.Bit >= 0 {
			targets = append(targets, core.Target{Output: sig, Bit: *r.Bit})
			continue
		}
		for b := 0; b < sig.Width; b++ {
			targets = append(targets, core.Target{Output: sig, Bit: b})
		}
	}
	return &Resolved{Design: d, Config: cfg, Seed: seed, Targets: targets}, nil
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

// runCore is the default job runner: resolve the spec's request with its
// workers capped at the server's MaxJobWorkers, build a fresh engine on the
// shared verdict cache, as goldmine does, and mine the request's targets.
func (s *Server) runCore(ctx context.Context, spec *JobSpec) (*Artifact, error) {
	req := spec.Request
	if limit := s.cfg.MaxJobWorkers; limit > 0 && req.Workers > limit {
		req.Workers = limit
	}
	r, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	cfg := r.Config
	cfg.Cache = s.cache
	eng, err := core.NewEngine(r.Design, cfg)
	if err != nil {
		return nil, err
	}
	if s.cfg.Tracer != nil {
		eng.SetTelemetry(s.cfg.Tracer)
	}
	res, err := eng.MineTargets(ctx, r.Targets, r.Seed)
	if err != nil {
		return nil, err
	}
	// Ingest into the cross-run corpus while the live result still has the
	// assertion objects — makeArtifact condenses them to the canonical
	// string. The tenant labels the run's provenance.
	s.corpus.IngestResult(spec.Tenant, res)
	return makeArtifact(res), nil
}

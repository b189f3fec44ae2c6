package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldmine/internal/corpus"
	"goldmine/internal/mc"
	"goldmine/internal/sched"
	"goldmine/internal/telemetry"
)

// JobState is the lifecycle of one job.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed" // terminal non-retryable error (bad spec, budget)
	JobQuarantined JobState = "quarantined"
	JobCanceled    JobState = "canceled"
)

// terminal reports whether a state ends the job's lifecycle.
func (s JobState) terminal() bool {
	switch s {
	case JobDone, JobFailed, JobQuarantined, JobCanceled:
		return true
	}
	return false
}

// Job is one tracked mining job. Fields are guarded by the server mutex;
// handlers read consistent snapshots via view().
type Job struct {
	ID       string
	Spec     JobSpec
	State    JobState
	Attempts int
	Err      string
	Artifact *Artifact
	// Recovered marks an artifact served from the WAL after a restart
	// instead of being recomputed.
	Recovered bool
	// Checkpointed marks a job parked by a drain: it resumes on the next
	// daemon start.
	Checkpointed bool
	Submitted    time.Time

	// canceled is a pointer so Job snapshots returned by the query API are
	// plain copyable values (atomic.Bool embeds a no-copy sentinel).
	canceled  *atomic.Bool
	cancelRun context.CancelFunc // set while running
	done      chan struct{}      // closed on terminal state
}

// Runner executes one job attempt. The default is Server.runCore; tests and
// the load harness substitute flaky runners to exercise the retry,
// quarantine, and recovery machinery without hostile RTL.
type Runner func(ctx context.Context, spec *JobSpec) (*Artifact, error)

// Config tunes a Server. The zero value of every field gets a sensible
// default from New.
type Config struct {
	// Workers is the number of job-executing goroutines.
	Workers int
	// QueueDepth bounds the number of admitted-but-unfinished jobs; beyond
	// it submissions are rejected with ErrQueueFull.
	QueueDepth int
	// TenantMaxActive caps one tenant's queued+running jobs (fairness).
	TenantMaxActive int
	// TenantBudget is each tenant's total mining wall-clock allowance
	// (0 = unlimited). A job's deadline is capped at the tenant's remainder.
	TenantBudget time.Duration
	// JobTimeout is the default per-job wall-clock bound (0 = none);
	// JobSpec.TimeoutMS overrides it per job.
	JobTimeout time.Duration
	// MaxAttempts is the attempt cap before a job that keeps dying to
	// engine-internal faults is quarantined.
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential backoff between attempts.
	RetryBase, RetryMax time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight jobs before
	// checkpointing them.
	DrainTimeout time.Duration
	// CacheCapacity bounds the process-wide cross-run verdict cache shared
	// by every engine.
	CacheCapacity int
	// MaxJobWorkers caps the per-job intra-mining parallelism a spec may
	// request.
	MaxJobWorkers int
	// WALPath is the durable job journal; empty runs without durability
	// (tests, ephemeral services).
	WALPath string
	// CorpusPath persists the cross-run assertion corpus as a JSONL journal
	// (see internal/corpus): every proven assertion mined by any job is
	// deduplicated on its canonical key and appended, and a restarted
	// daemon reloads the corpus before serving. Empty keeps the corpus
	// in-memory only.
	CorpusPath string
	// Tracer receives serve.* spans/events and engine telemetry (optional).
	Tracer *telemetry.Tracer
	// Runner overrides the job executor (nil = the real mining runner).
	Runner Runner
}

func (c *Config) setDefaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 1 << 20
	}
	if c.MaxJobWorkers < 1 {
		c.MaxJobWorkers = runtime.GOMAXPROCS(0)
	}
}

// jobQueue is the bounded FIFO between admission and the worker fleet. It is
// a slice under a cond rather than a channel so internal re-enqueues (WAL
// replay, retries) can exceed the admission bound without deadlock — the
// bound applies to client submissions, enforced by the server.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*Job
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j *Job) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, j)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next job; ok=false means the queue is closed (drain or
// kill) — remaining items are deliberately abandoned, their WAL state makes
// them resume on the next start.
func (q *jobQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	j := q.items[0]
	q.items = q.items[1:]
	return j, true
}

func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Server is the daemon core. Create with New, serve HTTP via Handler, stop
// with Shutdown (graceful) or Kill (crash simulation for recovery tests).
type Server struct {
	cfg     Config
	cache   *sched.VerdictCache
	tenants *tenants
	wal     *wal
	q       *jobQueue
	run     Runner
	// corpus accumulates every proven assertion mined by this daemon's
	// jobs (deduplicated across runs); corpusStore is its append-mode
	// persistence when CorpusPath is configured, nil otherwise.
	corpus      *corpus.Corpus
	corpusStore *corpus.Store

	// baseCtx parents every job context; baseCancel fires on drain timeout
	// or Kill and checkpoints everything still running.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int

	draining atomic.Bool
	killed   atomic.Bool
	live     atomic.Int32 // live workers
	active   atomic.Int32 // jobs currently executing
	wg       sync.WaitGroup

	timersMu sync.Mutex
	timers   map[*time.Timer]struct{}

	rngMu sync.Mutex
	rng   *rand.Rand

	startedAt time.Time
	// replay/lifetime counters for /statsz and the bench harness.
	submitted, completed, failed, retried, quarantined atomic.Int64
	recoveredDone, resumedPending                      atomic.Int64
}

// New builds a server, replays the WAL (when configured), starts the worker
// fleet, and re-enqueues every pending job in original submit order.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     sched.NewVerdictCacheSized(cfg.CacheCapacity),
		tenants:   newTenants(cfg.TenantBudget, cfg.TenantMaxActive),
		q:         newJobQueue(),
		jobs:      map[string]*Job{},
		timers:    map[*time.Timer]struct{}{},
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		startedAt: time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.run = cfg.Runner
	if s.run == nil {
		s.run = s.runCore
	}

	if cfg.CorpusPath != "" {
		crp, store, err := corpus.OpenStore(cfg.CorpusPath)
		if err != nil {
			return nil, err
		}
		s.corpus = crp
		s.corpusStore = store
	} else {
		s.corpus = corpus.New()
	}

	if cfg.WALPath != "" {
		w, replayed, err := openWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		s.wal = w
		for _, wj := range replayed {
			s.adopt(wj)
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		s.live.Add(1)
		go s.worker()
	}
	return s, nil
}

// adopt folds one replayed WAL job into the live state: terminal jobs are
// re-served from their recorded outcome, pending ones resume.
func (s *Server) adopt(wj *walJob) {
	j := &Job{
		ID:        wj.ID,
		Spec:      wj.Spec,
		State:     wj.State,
		Attempts:  wj.Attempts,
		Err:       wj.Err,
		Artifact:  wj.Artifact,
		Submitted: time.Now(),
		canceled:  new(atomic.Bool),
		done:      make(chan struct{}),
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(wj.ID, "j")); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
	charged := time.Duration(wj.ChargedMS * float64(time.Millisecond))
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if j.State.terminal() {
		close(j.done)
		s.tenants.charge(j.Spec.Tenant, charged)
		if j.State == JobDone {
			j.Recovered = true
			s.recoveredDone.Add(1)
		}
		return
	}
	// Pending (queued, running-at-kill, failed-awaiting-retry, or
	// checkpointed): resume from the front of the line. The attempt count
	// survives, so a job that was one failure from quarantine still is.
	j.State = JobQueued
	s.tenants.charge(j.Spec.Tenant, charged)
	s.tenants.readmit(j.Spec.Tenant)
	s.resumedPending.Add(1)
	s.q.push(j)
}

// Submit validates and admits one job: WAL first, then the queue, so a job
// whose ID a client ever observes is durable. The typed errors (ErrDraining,
// ErrQueueFull, ErrTenantQueueFull, ErrBudgetExhausted) describe every
// rejection.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Global admission bound: everything admitted but not yet terminal. The
	// count, the tenant reservation, and the insert happen under one lock so
	// concurrent submissions cannot overshoot the bound.
	s.mu.Lock()
	pending := 0
	for _, j := range s.jobs {
		if !j.State.terminal() {
			pending++
		}
	}
	if pending >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	if err := s.tenants.admit(spec.Tenant); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &Job{
		ID: id, Spec: spec, State: JobQueued,
		Submitted: time.Now(),
		canceled:  new(atomic.Bool),
		done:      make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	// The submit record is appended under the same lock that allocated the
	// ID, so WAL order matches admission order and replay resumes pending
	// jobs in their original submit order.
	s.walErr(s.wal.append(walSubmit, &spec, telemetry.String("id", id)))
	s.mu.Unlock()
	s.submitted.Add(1)
	s.cfg.Tracer.Event("serve.submit",
		telemetry.String("id", id), telemetry.String("tenant", spec.Tenant))
	s.q.push(j)
	return j, nil
}

// walErr surfaces WAL append failures to telemetry without failing the job —
// a sick disk degrades durability, not service.
func (s *Server) walErr(err error) {
	if err != nil {
		s.cfg.Tracer.Event("serve.wal_error", telemetry.String("error", err.Error()))
	}
}

func (s *Server) worker() {
	defer func() {
		s.live.Add(-1)
		s.wg.Done()
	}()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// attemptOutcome classifies one attempt for the retry machinery.
type attemptOutcome int

const (
	attemptDone attemptOutcome = iota
	attemptCheckpoint
	attemptRetryable
	attemptFatal
)

// safeRun invokes the runner behind a recover barrier: a panic that escapes
// every engine-level barrier becomes a retryable ErrEngineInternal instead of
// taking the worker (and every queued job behind it) down.
func (s *Server) safeRun(ctx context.Context, spec *JobSpec) (art *Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			art = nil
			err = fmt.Errorf("%w: panic: %v", mc.ErrEngineInternal, r)
		}
	}()
	return s.run(ctx, spec)
}

func (s *Server) runJob(j *Job) {
	// The canceled/terminal check and the queued→running transition are one
	// critical section: a concurrent Cancel either settles the job before we
	// look (we bail here) or observes JobRunning and cancels the run context.
	// Checking outside the lock would let Cancel finish the job in the gap
	// and this worker resurrect a terminal job (and double-close j.done).
	s.mu.Lock()
	if j.State.terminal() {
		s.mu.Unlock()
		return
	}
	if j.canceled.Load() {
		s.mu.Unlock()
		s.finish(j, JobCanceled, "", nil, 0)
		return
	}
	j.Attempts++
	attempt := j.Attempts
	j.State = JobRunning
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancelRun = cancel
	s.mu.Unlock()
	defer cancel()
	s.active.Add(1)
	defer s.active.Add(-1)
	s.walErr(s.wal.append(walStart, nil,
		telemetry.String("id", j.ID), telemetry.Int("attempt", int64(attempt))))

	// Deadline: the job's own timeout capped by the tenant's remaining
	// budget — the PR 1 context plumbing turns either into a clean partial
	// artifact instead of lost work.
	timeout := s.cfg.JobTimeout
	if j.Spec.TimeoutMS > 0 {
		timeout = time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	budgetCapped := false
	if rem, limited := s.tenants.remaining(j.Spec.Tenant); limited {
		if rem <= 0 {
			// Terminal states must survive restarts: without a reject record
			// the replay would re-queue a job the client saw fail.
			s.walErr(s.wal.append(walReject, nil,
				telemetry.String("id", j.ID),
				telemetry.String("error", ErrBudgetExhausted.Error())))
			s.finish(j, JobFailed, ErrBudgetExhausted.Error(), nil, 0)
			return
		}
		if timeout <= 0 || rem < timeout {
			timeout = rem
			budgetCapped = true
		}
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	_, sp := s.cfg.Tracer.StartSpan(s.baseCtx, "serve.job",
		telemetry.String("id", j.ID), telemetry.Int("attempt", int64(attempt)))
	start := time.Now()
	art, err := s.safeRun(ctx, &j.Spec)
	elapsed := time.Since(start)
	sp.End(telemetry.Bool("ok", err == nil))

	outcome := attemptDone
	msg := ""
	switch {
	case j.canceled.Load():
		outcome = attemptFatal // settled below as canceled
	case err == nil && art != nil && art.Interrupted && s.stopping():
		// The drain (or kill) cancellation cut this attempt short: the
		// partial artifact is discarded and the job resumes after restart.
		outcome = attemptCheckpoint
	case err == nil && art != nil:
		if art.Interrupted && budgetCapped {
			// Budget expiry mid-job: keep the partial artifact, note why.
			msg = ErrBudgetExhausted.Error()
		}
		outcome = attemptDone
	case err == nil:
		outcome = attemptFatal
		msg = "serve: runner returned neither artifact nor error"
	case s.stopping() && (errors.Is(err, context.Canceled) || errors.Is(err, mc.ErrCanceled)):
		// A runner that surfaces the drain cancellation as an error instead
		// of a partial artifact still checkpoints rather than failing.
		outcome = attemptCheckpoint
	case errors.Is(err, mc.ErrEngineInternal):
		outcome = attemptRetryable
		msg = err.Error()
	default:
		outcome = attemptFatal
		msg = err.Error()
	}

	switch outcome {
	case attemptDone:
		s.walErr(s.wal.append(walDone, art,
			telemetry.String("id", j.ID),
			telemetry.Int("attempt", int64(attempt)),
			telemetry.Int("elapsed_us", elapsed.Microseconds()),
			telemetry.Bool("interrupted", art.Interrupted)))
		s.finish(j, JobDone, msg, art, elapsed)
	case attemptCheckpoint:
		s.walErr(s.wal.append(walCheckpoint, nil,
			telemetry.String("id", j.ID),
			telemetry.Int("elapsed_us", elapsed.Microseconds())))
		s.mu.Lock()
		j.State = JobQueued
		j.Checkpointed = true
		// The checkpoint was a drain artifact, not a failure of the job:
		// the attempt does not count against the quarantine cap.
		j.Attempts--
		j.cancelRun = nil
		s.mu.Unlock()
		s.tenants.settle(j.Spec.Tenant, elapsed)
	case attemptFatal:
		state := JobFailed
		if j.canceled.Load() {
			state = JobCanceled
			s.walErr(s.wal.append(walCancel, nil, telemetry.String("id", j.ID)))
		} else {
			s.walErr(s.wal.append(walReject, nil,
				telemetry.String("id", j.ID),
				telemetry.String("error", msg),
				telemetry.Int("elapsed_us", elapsed.Microseconds())))
		}
		s.finish(j, state, msg, nil, elapsed)
	case attemptRetryable:
		s.walErr(s.wal.append(walFail, nil,
			telemetry.String("id", j.ID),
			telemetry.Int("attempt", int64(attempt)),
			telemetry.String("error", msg),
			telemetry.Int("elapsed_us", elapsed.Microseconds())))
		if attempt >= s.cfg.MaxAttempts {
			s.walErr(s.wal.append(walQuarantine, nil,
				telemetry.String("id", j.ID), telemetry.String("error", msg)))
			s.quarantined.Add(1)
			s.cfg.Tracer.Event("serve.quarantine", telemetry.String("id", j.ID))
			s.finish(j, JobQuarantined, msg, nil, elapsed)
			return
		}
		s.tenants.settle(j.Spec.Tenant, elapsed)
		s.tenants.readmit(j.Spec.Tenant)
		s.scheduleRetry(j, attempt, msg)
	}
}

// finish drives a job to a terminal state and releases its tenant slot.
func (s *Server) finish(j *Job, state JobState, msg string, art *Artifact, elapsed time.Duration) {
	s.mu.Lock()
	if j.State.terminal() {
		s.mu.Unlock()
		return
	}
	j.State = state
	j.Err = msg
	if art != nil {
		j.Artifact = art
	}
	j.cancelRun = nil
	s.mu.Unlock()
	// Settle before releasing waiters: a client that resubmits as soon as
	// WaitJob returns must see this job's budget charged and slot freed.
	s.tenants.settle(j.Spec.Tenant, elapsed)
	close(j.done)
	switch state {
	case JobDone:
		s.completed.Add(1)
	case JobFailed, JobQuarantined:
		s.failed.Add(1)
	}
}

// scheduleRetry re-enqueues a job after exponential backoff with jitter
// (full-jitter in [delay/2, delay]). During a drain the push is a no-op and
// the WAL fail record carries the job into the next daemon run instead.
func (s *Server) scheduleRetry(j *Job, attempt int, msg string) {
	delay := s.cfg.RetryBase << (attempt - 1)
	if delay > s.cfg.RetryMax || delay <= 0 {
		delay = s.cfg.RetryMax
	}
	s.rngMu.Lock()
	delay = delay/2 + time.Duration(s.rng.Int63n(int64(delay/2)+1))
	s.rngMu.Unlock()
	s.mu.Lock()
	j.State = JobQueued
	j.Err = msg
	j.cancelRun = nil
	s.mu.Unlock()
	s.retried.Add(1)
	s.cfg.Tracer.Event("serve.retry",
		telemetry.String("id", j.ID),
		telemetry.Int("attempt", int64(attempt)),
		telemetry.Int("delay_us", delay.Microseconds()))
	// timersMu is held until t is stored: a timer that fires at once
	// waits on it, so it reads t only after the assignment and deletes the
	// entry only after it exists.
	s.timersMu.Lock()
	defer s.timersMu.Unlock()
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		s.timersMu.Lock()
		delete(s.timers, t)
		s.timersMu.Unlock()
		if s.stopping() || s.draining.Load() {
			return
		}
		s.q.push(j)
	})
	s.timers[t] = struct{}{}
}

func (s *Server) stopping() bool {
	return s.baseCtx.Err() != nil
}

// Job returns a job snapshot by ID.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *snapshot(j), true
}

// snapshot copies the mutex-guarded fields; callers hold s.mu.
func snapshot(j *Job) *Job {
	return &Job{
		ID: j.ID, Spec: j.Spec, State: j.State, Attempts: j.Attempts,
		Err: j.Err, Artifact: j.Artifact, Recovered: j.Recovered,
		Checkpointed: j.Checkpointed, Submitted: j.Submitted,
	}
}

// Jobs lists job snapshots in submit order, optionally filtered by tenant.
func (s *Server) Jobs(tenant string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.Spec.Tenant != tenant {
			continue
		}
		out = append(out, *snapshot(j))
	}
	return out
}

// WaitJob blocks until the job reaches a terminal state (or ctx dies) and
// returns its final snapshot. A checkpointed job never terminates within this
// process; callers see ctx.Err.
func (s *Server) WaitJob(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("serve: no job %s", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return *snapshot(j), nil
}

// Cancel cancels a queued or running job. Canceling a terminal job is a
// no-op reporting false.
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("serve: no job %s", id)
	}
	if j.State.terminal() {
		s.mu.Unlock()
		return false, nil
	}
	j.canceled.Store(true)
	cancel := j.cancelRun
	running := j.State == JobRunning
	s.mu.Unlock()
	if running {
		// The worker observes the cancellation and settles the job.
		if cancel != nil {
			cancel()
		}
		return true, nil
	}
	// Queued (or awaiting retry): settle immediately; a later pop skips it.
	s.walErr(s.wal.append(walCancel, nil, telemetry.String("id", id)))
	s.finish(j, JobCanceled, "canceled", nil, 0)
	return true, nil
}

// Stats is the /statsz payload: one coherent robustness dashboard.
type Stats struct {
	Uptime         float64          `json:"uptime_s"`
	Draining       bool             `json:"draining"`
	WorkersLive    int              `json:"workers_live"`
	Workers        int              `json:"workers"`
	QueueDepth     int              `json:"queue_depth"`
	QueueBound     int              `json:"queue_bound"`
	ActiveJobs     int              `json:"active_jobs"`
	JobsByState    map[JobState]int `json:"jobs_by_state"`
	Submitted      int64            `json:"submitted"`
	Completed      int64            `json:"completed"`
	Failed         int64            `json:"failed"`
	Retried        int64            `json:"retried"`
	Quarantined    int64            `json:"quarantined"`
	RecoveredDone  int64            `json:"recovered_done"`
	ResumedPending int64            `json:"resumed_pending"`
	WALAppends     int64            `json:"wal_appends"`
	Corpus         corpus.Stats     `json:"corpus"`
	// WALDropped/WALPersistErr and CorpusDropped/CorpusPersistErr surface
	// durability loss on the -wal and -corpus journals: records that never
	// reached the file (e.g. disk full) and the first error. The in-memory
	// state keeps serving; a nonzero count means a restart will forget
	// those records.
	WALDropped       int64            `json:"wal_dropped,omitempty"`
	WALPersistErr    string           `json:"wal_persist_err,omitempty"`
	CorpusDropped    int64            `json:"corpus_dropped,omitempty"`
	CorpusPersistErr string           `json:"corpus_persist_err,omitempty"`
	Cache            sched.CacheStats `json:"cache"`
	CacheHitRate     float64          `json:"cache_hit_rate"`
	CacheLen         int              `json:"cache_len"`
	Tenants          []TenantStats    `json:"tenants"`
	// Solver surfaces the SAT search and model-checker counters from the
	// wired tracer's registry (sat.solves, sat.conflicts, mc.checks,
	// mc.proved ...). Empty when the server runs without a Tracer.
	Solver map[string]int64 `json:"solver,omitempty"`
}

// Stats snapshots the server's health counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Uptime:         time.Since(s.startedAt).Seconds(),
		Draining:       s.draining.Load(),
		WorkersLive:    int(s.live.Load()),
		Workers:        s.cfg.Workers,
		QueueDepth:     s.q.len(),
		QueueBound:     s.cfg.QueueDepth,
		ActiveJobs:     int(s.active.Load()),
		JobsByState:    map[JobState]int{},
		Submitted:      s.submitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Retried:        s.retried.Load(),
		Quarantined:    s.quarantined.Load(),
		RecoveredDone:  s.recoveredDone.Load(),
		ResumedPending: s.resumedPending.Load(),
		Corpus:         s.corpus.Stats(),
		Cache:          s.cache.Stats(),
		CacheLen:       s.cache.Len(),
		Tenants:        s.tenants.stats(),
	}
	if s.wal != nil {
		st.WALAppends = s.wal.appends.Load()
		st.WALDropped = s.wal.log.Dropped()
		if err := s.wal.log.Err(); err != nil {
			st.WALPersistErr = err.Error()
		}
	}
	st.CorpusDropped = s.corpusStore.Dropped()
	if err := s.corpusStore.Err(); err != nil {
		st.CorpusPersistErr = err.Error()
	}
	st.CacheHitRate = st.Cache.HitRate()
	if s.cfg.Tracer != nil {
		snap := s.cfg.Tracer.Registry().Snapshot()
		st.Solver = make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "sat.") || strings.HasPrefix(name, "mc.") {
				st.Solver[name] = v
			}
		}
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "sat.") || strings.HasPrefix(name, "mc.") {
				st.Solver[name] = v
			}
		}
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		st.JobsByState[j.State]++
	}
	s.mu.Unlock()
	return st
}

// Cache exposes the process-wide verdict cache (bench/statsz introspection).
func (s *Server) Cache() *sched.VerdictCache { return s.cache }

// Corpus exposes the daemon's cross-run assertion corpus: every proven
// assertion mined by a completed job, deduplicated on canonical keys, and —
// when CorpusPath is configured — persisted across restarts.
func (s *Server) Corpus() *corpus.Corpus { return s.corpus }

// Ready reports whether the server should receive traffic, with a reason
// when not.
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if live := int(s.live.Load()); live < s.cfg.Workers {
		return false, fmt.Sprintf("only %d/%d workers live", live, s.cfg.Workers)
	}
	s.mu.Lock()
	pending := 0
	for _, j := range s.jobs {
		if !j.State.terminal() {
			pending++
		}
	}
	s.mu.Unlock()
	if pending >= s.cfg.QueueDepth {
		return false, "queue full"
	}
	return true, ""
}

// stopTimers cancels every pending retry timer; the affected jobs' WAL state
// (submit + fail, no terminal record) re-queues them on the next start.
func (s *Server) stopTimers() {
	s.timersMu.Lock()
	defer s.timersMu.Unlock()
	for t := range s.timers {
		t.Stop()
		delete(s.timers, t)
	}
}

// Shutdown drains gracefully: stop admitting, let in-flight jobs finish
// within the drain timeout (then cancel them — they checkpoint and resume on
// the next start), stop retry timers, flush and close the WAL. It returns
// nil on a clean drain so the daemon can exit 0; ctx bounds the whole wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Tracer.Event("serve.drain")
	s.stopTimers()
	s.q.close()
	deadline := time.AfterFunc(s.cfg.DrainTimeout, s.baseCancel)
	defer deadline.Stop()
	stop := context.AfterFunc(ctx, s.baseCancel)
	defer stop()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.walErr(s.wal.append(walDrain, nil))
	err := s.wal.close()
	if cerr := s.corpusStore.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return ctx.Err()
}

// Kill simulates SIGKILL for in-process recovery tests: no drain, no WAL
// flushes beyond what already hit the file, workers abandoned mid-job. The
// WAL file is exactly what a real SIGKILL would leave behind. Kill waits for
// worker goroutines to unwind (the process outlives the "crash") but writes
// nothing more.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.draining.Store(true)
	s.wal.disable()
	s.stopTimers()
	s.baseCancel()
	s.q.close()
	s.wg.Wait()
	_ = s.wal.close()
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldmine/internal/mc"
	"goldmine/internal/telemetry"
)

// testConfig is a small, fast server configuration for runner-seam tests.
func testConfig(run Runner) Config {
	return Config{
		Workers:      2,
		QueueDepth:   64,
		MaxAttempts:  3,
		RetryBase:    time.Millisecond,
		RetryMax:     5 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		Runner:       run,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// okRunner completes instantly with a tiny artifact.
func okRunner(ctx context.Context, spec *JobSpec) (*Artifact, error) {
	return &Artifact{Design: spec.Design, Canonical: "canon:" + spec.Design + "\n"}, nil
}

func spec(tenant string) JobSpec {
	return JobSpec{Tenant: tenant, Request: Request{Design: "arbiter2"}}
}

func TestSubmitRunsJob(t *testing.T) {
	s := mustServer(t, testConfig(okRunner))
	defer shutdown(t, s)
	j, err := s.Submit(spec("t1"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := s.WaitJob(context.Background(), j.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if got.State != JobDone || got.Artifact == nil || got.Artifact.Canonical != "canon:arbiter2\n" {
		t.Fatalf("job = %+v, want done with artifact", got)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", got.Attempts)
	}
}

func TestSubmitValidates(t *testing.T) {
	s := mustServer(t, testConfig(okRunner))
	defer shutdown(t, s)
	if _, err := s.Submit(JobSpec{Request: Request{Design: "arbiter2"}}); err == nil {
		t.Fatal("submit without tenant should fail")
	}
	if _, err := s.Submit(JobSpec{Tenant: "t", Request: Request{Design: "d", Source: "module m; endmodule"}}); err == nil {
		t.Fatal("submit with design AND source should fail")
	}
	for _, seed := range []string{"random:-5", "random:x", "fuzz"} {
		if _, err := s.Submit(JobSpec{Tenant: "t", Request: Request{Design: "arbiter2", Seed: seed}}); err == nil {
			t.Errorf("submit with seed %q should fail", seed)
		}
	}
}

// TestAdmissionControl fills the bounded queue with blocked jobs and checks
// that the overflow submission is rejected with the typed ErrQueueFull — and
// that capacity frees once jobs finish.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		select {
		case <-release:
			return &Artifact{Design: spec.Design}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := testConfig(blocking)
	cfg.Workers = 1
	cfg.QueueDepth = 3
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(spec(fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	if _, err := s.Submit(spec("overflow")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	close(release)
	for _, id := range ids {
		if j, err := s.WaitJob(context.Background(), id); err != nil || j.State != JobDone {
			t.Fatalf("job %s: %+v, %v", id, j, err)
		}
	}
	// Terminal jobs no longer occupy admission slots.
	if _, err := s.Submit(spec("late")); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
}

// TestTenantFairnessCap pins that one tenant saturating its per-tenant slot
// cap is rejected with the typed error while other tenants are still served.
func TestTenantFairnessCap(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		select {
		case <-release:
			return &Artifact{Design: spec.Design}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := testConfig(blocking)
	cfg.Workers = 1
	cfg.TenantMaxActive = 2
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(spec("greedy")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(spec("greedy")); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("third greedy submit err = %v, want ErrTenantQueueFull", err)
	}
	// The other tenant is not starved by greedy's cap.
	j, err := s.Submit(spec("polite"))
	if err != nil {
		t.Fatalf("polite submit: %v", err)
	}
	close(release)
	if got, err := s.WaitJob(context.Background(), j.ID); err != nil || got.State != JobDone {
		t.Fatalf("polite job: %+v, %v", got, err)
	}
}

// TestTenantBudget exhausts one tenant's wall-clock budget and checks the
// typed rejection — while another tenant keeps mining against its own budget.
func TestTenantBudget(t *testing.T) {
	slow := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		time.Sleep(30 * time.Millisecond)
		return &Artifact{Design: spec.Design}, nil
	}
	cfg := testConfig(slow)
	cfg.TenantBudget = 20 * time.Millisecond
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	j, err := s.Submit(spec("burner"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got, _ := s.WaitJob(context.Background(), j.ID); got.State != JobDone {
		t.Fatalf("first job state = %s, want done", got.State)
	}
	// 30ms consumed > 20ms budget: the next submit is rejected, typed.
	if _, err := s.Submit(spec("burner")); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-budget submit err = %v, want ErrBudgetExhausted", err)
	}
	// An independent tenant still gets served.
	j2, err := s.Submit(spec("fresh"))
	if err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	if got, _ := s.WaitJob(context.Background(), j2.ID); got.State != JobDone {
		t.Fatalf("fresh job state = %s, want done", got.State)
	}
}

// TestRetryThenSucceed: a job that dies twice to engine-internal faults is
// retried with backoff and completes on the third attempt.
func TestRetryThenSucceed(t *testing.T) {
	var calls atomic.Int32
	flaky := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("%w: injected", mc.ErrEngineInternal)
		}
		return &Artifact{Design: spec.Design}, nil
	}
	s := mustServer(t, testConfig(flaky))
	defer shutdown(t, s)
	j, err := s.Submit(spec("t1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := s.WaitJob(context.Background(), j.ID)
	if err != nil || got.State != JobDone {
		t.Fatalf("job = %+v, %v; want done", got, err)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
	if st := s.Stats(); st.Retried != 2 {
		t.Fatalf("retried = %d, want 2", st.Retried)
	}
}

// TestQuarantine: a job that keeps dying is quarantined after MaxAttempts —
// poisoned work cannot wedge the fleet.
func TestQuarantine(t *testing.T) {
	poison := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		return nil, fmt.Errorf("%w: always", mc.ErrEngineInternal)
	}
	s := mustServer(t, testConfig(poison))
	defer shutdown(t, s)
	j, err := s.Submit(spec("t1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := s.WaitJob(context.Background(), j.ID)
	if err != nil || got.State != JobQuarantined {
		t.Fatalf("job = %+v, %v; want quarantined", got, err)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
}

// TestWorkerPanicRecovery: a panicking runner is an engine-internal fault —
// retried, and the worker that hosted the panic survives to run other jobs.
func TestWorkerPanicRecovery(t *testing.T) {
	var calls atomic.Int32
	bomb := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		if calls.Add(1) == 1 {
			panic("injected worker panic")
		}
		return &Artifact{Design: spec.Design}, nil
	}
	cfg := testConfig(bomb)
	cfg.Workers = 1
	s := mustServer(t, cfg)
	defer shutdown(t, s)
	j, err := s.Submit(spec("t1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := s.WaitJob(context.Background(), j.ID)
	if err != nil || got.State != JobDone {
		t.Fatalf("job = %+v, %v; want done after panic retry", got, err)
	}
	if live := s.Stats().WorkersLive; live != 1 {
		t.Fatalf("workers live = %d, want 1 (panic must not kill the worker)", live)
	}
}

// TestNonRetryableErrorFailsFast: a spec-level error is terminal on the first
// attempt, never retried.
func TestNonRetryableErrorFailsFast(t *testing.T) {
	bad := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		return nil, errors.New("no such design")
	}
	s := mustServer(t, testConfig(bad))
	defer shutdown(t, s)
	j, _ := s.Submit(spec("t1"))
	got, err := s.WaitJob(context.Background(), j.ID)
	if err != nil || got.State != JobFailed {
		t.Fatalf("job = %+v, %v; want failed", got, err)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retries for spec errors)", got.Attempts)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	blocking := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &Artifact{Design: spec.Design}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := testConfig(blocking)
	cfg.Workers = 1
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	running, _ := s.Submit(spec("t1"))
	queued, _ := s.Submit(spec("t1"))
	<-started

	if ok, err := s.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("cancel queued: %v %v", ok, err)
	}
	if got, _ := s.WaitJob(context.Background(), queued.ID); got.State != JobCanceled {
		t.Fatalf("queued job state = %s, want canceled", got.State)
	}
	if ok, err := s.Cancel(running.ID); err != nil || !ok {
		t.Fatalf("cancel running: %v %v", ok, err)
	}
	if got, _ := s.WaitJob(context.Background(), running.ID); got.State != JobCanceled {
		t.Fatalf("running job state = %s, want canceled", got.State)
	}
	// Canceling a terminal job reports false, not an error.
	if ok, err := s.Cancel(running.ID); err != nil || ok {
		t.Fatalf("re-cancel = %v %v, want false nil", ok, err)
	}
}

// TestCancelRaceWithWorkerPickup hammers the window between a worker popping
// a job and marking it running: a Cancel landing in that gap must settle the
// job exactly once (the old unlocked check let the worker resurrect a
// terminal job and double-close its done channel).
func TestCancelRaceWithWorkerPickup(t *testing.T) {
	cfg := testConfig(okRunner)
	cfg.Workers = 4
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		j, err := s.Submit(spec(fmt.Sprintf("t%d", i%4)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := s.Cancel(id); err != nil {
				t.Errorf("cancel %s: %v", id, err)
			}
		}(j.ID)
		if _, err := s.WaitJob(context.Background(), j.ID); err != nil {
			t.Fatalf("wait %s: %v", j.ID, err)
		}
	}
	wg.Wait()
	for _, j := range s.Jobs("") {
		if j.State != JobDone && j.State != JobCanceled {
			t.Fatalf("job %s state = %s, want done or canceled", j.ID, j.State)
		}
	}
}

// TestBudgetExhaustedIsDurable: a job rejected at run time because its
// tenant's budget is spent must replay as failed after a restart, not flip
// back to queued and burn a worker re-failing.
func TestBudgetExhaustedIsDurable(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	slow := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		time.Sleep(30 * time.Millisecond)
		return &Artifact{Design: spec.Design}, nil
	}
	cfg := testConfig(slow)
	cfg.Workers = 1
	cfg.TenantBudget = 20 * time.Millisecond
	cfg.WALPath = walPath
	s1 := mustServer(t, cfg)
	// Both admitted while the budget is untouched; the first burns it, the
	// second hits the pre-attempt budget check and fails terminally.
	j1, err := s1.Submit(spec("burner"))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := s1.Submit(spec("burner"))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if got, _ := s1.WaitJob(context.Background(), j1.ID); got.State != JobDone {
		t.Fatalf("job1 state = %s, want done", got.State)
	}
	got2, _ := s1.WaitJob(context.Background(), j2.ID)
	if got2.State != JobFailed || !strings.Contains(got2.Err, "budget") {
		t.Fatalf("job2 = %+v, want budget-exhausted failure", got2)
	}
	s1.Kill()

	// Restart: the failed job must stay failed and must not rerun.
	var reran atomic.Int32
	run2 := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		reran.Add(1)
		return &Artifact{Design: spec.Design}, nil
	}
	cfg2 := testConfig(run2)
	cfg2.TenantBudget = 20 * time.Millisecond
	cfg2.WALPath = walPath
	s2 := mustServer(t, cfg2)
	defer shutdown(t, s2)
	got, ok := s2.Job(j2.ID)
	if !ok || got.State != JobFailed {
		t.Fatalf("replayed job2 = %+v (ok=%v), want failed", got, ok)
	}
	if st := s2.Stats(); st.ResumedPending != 0 {
		t.Fatalf("resumed pending = %d, want 0 (terminal jobs must not resume)", st.ResumedPending)
	}
	if n := reran.Load(); n != 0 {
		t.Fatalf("runner reran %d times after restart, want 0", n)
	}
}

// TestDrainRestartDrainRestart: the end-to-end shape of the drain-trailer
// bug — a daemon that gracefully drains, restarts, works, drains again, and
// restarts must keep starting on its own WAL.
func TestDrainRestartDrainRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	for round := 0; round < 3; round++ {
		cfg := testConfig(okRunner)
		cfg.WALPath = walPath
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("round %d: New: %v", round, err)
		}
		j, err := s.Submit(JobSpec{Tenant: "t", Request: Request{Design: fmt.Sprintf("d%d", round)}})
		if err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		if got, _ := s.WaitJob(context.Background(), j.ID); got.State != JobDone {
			t.Fatalf("round %d: job state = %s", round, got.State)
		}
		shutdown(t, s)
	}
}

// TestDrainCompletesInFlight: Shutdown lets running jobs finish and loses
// nothing; each submitted job is executed exactly once.
func TestDrainCompletesInFlight(t *testing.T) {
	var runs atomic.Int32
	slowOK := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		runs.Add(1)
		time.Sleep(5 * time.Millisecond)
		return &Artifact{Design: spec.Design}, nil
	}
	s := mustServer(t, testConfig(slowOK))
	const n = 12
	var ids []string
	for i := 0; i < n; i++ {
		j, err := s.Submit(spec(fmt.Sprintf("t%d", i%3)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	shutdown(t, s)
	done := 0
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == JobDone {
			done++
		} else if j.State != JobQueued {
			t.Fatalf("job %s state = %s after drain, want done or queued(checkpointed)", id, j.State)
		}
	}
	if int(runs.Load()) != done {
		t.Fatalf("runner ran %d times but %d jobs done: lost or duplicated work", runs.Load(), done)
	}
	// After the drain, submissions are refused with the typed error.
	if _, err := s.Submit(spec("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestKillRestartDurability is the core crash-safety property: SIGKILL the
// daemon mid-load, restart it on the same WAL, and (a) completed jobs are
// re-served from the journal without recomputation, (b) pending jobs resume
// and complete, (c) nothing is lost or duplicated.
func TestKillRestartDurability(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")

	var runs1 atomic.Int32
	release := make(chan struct{})
	gated := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		runs1.Add(1)
		if spec.Design == "slow" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &Artifact{Design: spec.Design, Canonical: "canon:" + spec.Design + "\n"}, nil
	}
	cfg := testConfig(gated)
	cfg.Workers = 1
	cfg.WALPath = walPath
	s1 := mustServer(t, cfg)

	fast, err := s1.Submit(JobSpec{Tenant: "t1", Request: Request{Design: "fast"}})
	if err != nil {
		t.Fatalf("submit fast: %v", err)
	}
	if got, _ := s1.WaitJob(context.Background(), fast.ID); got.State != JobDone {
		t.Fatalf("fast job state = %s", got.State)
	}
	slow, err := s1.Submit(JobSpec{Tenant: "t1", Request: Request{Design: "slow"}})
	if err != nil {
		t.Fatalf("submit slow: %v", err)
	}
	queued, err := s1.Submit(JobSpec{Tenant: "t2", Request: Request{Design: "fast2"}})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	// Wait until the slow job is actually running, then kill the daemon.
	for {
		if j, _ := s1.Job(slow.ID); j.State == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill()
	close(release)

	// Restart on the same WAL with a fresh runner that records what reruns.
	var reran sync.Map
	run2 := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		reran.Store(spec.Design, true)
		return &Artifact{Design: spec.Design, Canonical: "canon:" + spec.Design + "\n"}, nil
	}
	cfg2 := testConfig(run2)
	cfg2.WALPath = walPath
	s2 := mustServer(t, cfg2)
	defer shutdown(t, s2)

	// (a) The completed job is served from the journal, marked recovered,
	// with a byte-identical artifact — and was NOT recomputed.
	got, ok := s2.Job(fast.ID)
	if !ok || got.State != JobDone {
		t.Fatalf("recovered fast job = %+v, %v", got, ok)
	}
	if !got.Recovered {
		t.Fatal("recovered job should carry the Recovered flag")
	}
	if got.Artifact == nil || got.Artifact.Canonical != "canon:fast\n" {
		t.Fatalf("recovered artifact = %+v, want byte-identical canonical", got.Artifact)
	}

	// (b) The killed-mid-flight job and the queued job both resume and run.
	for _, id := range []string{slow.ID, queued.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		j, err := s2.WaitJob(ctx, id)
		cancel()
		if err != nil || j.State != JobDone {
			t.Fatalf("resumed job %s = %+v, %v", id, j, err)
		}
	}

	// (c) Exactly the two pending jobs reran; the done one did not.
	if _, did := reran.Load("fast"); did {
		t.Fatal("completed job was recomputed after restart")
	}
	for _, d := range []string{"slow", "fast2"} {
		if _, did := reran.Load(d); !did {
			t.Fatalf("pending job %q did not rerun after restart", d)
		}
	}
	st := s2.Stats()
	if st.RecoveredDone != 1 || st.ResumedPending != 2 {
		t.Fatalf("recovery stats = %+v, want 1 recovered / 2 resumed", st)
	}
}

// TestRestartPreservesAttemptCounts: a job one failure short of quarantine
// stays one failure short across a restart.
func TestRestartPreservesAttemptCounts(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	poison := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		return nil, fmt.Errorf("%w: always", mc.ErrEngineInternal)
	}
	cfg := testConfig(poison)
	cfg.MaxAttempts = 5
	cfg.RetryBase = time.Hour // park the job in retry-wait after one failure
	cfg.RetryMax = time.Hour
	cfg.WALPath = walPath
	s1 := mustServer(t, cfg)
	j, err := s1.Submit(spec("t1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		if got, _ := s1.Job(j.ID); got.Attempts == 1 && got.State == JobQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill()

	cfg2 := testConfig(poison)
	cfg2.MaxAttempts = 5
	cfg2.WALPath = walPath
	s2 := mustServer(t, cfg2)
	defer shutdown(t, s2)
	got, err := s2.WaitJob(context.Background(), j.ID)
	if err != nil || got.State != JobQuarantined {
		t.Fatalf("job = %+v, %v; want quarantined", got, err)
	}
	if got.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5 (1 pre-restart + 4 post)", got.Attempts)
	}
}

// TestBudgetSurvivesRestart: wall clock charged against a tenant's budget is
// replayed from the WAL, so a restart does not refill budgets.
func TestBudgetSurvivesRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.jsonl")
	slow := func(ctx context.Context, spec *JobSpec) (*Artifact, error) {
		time.Sleep(30 * time.Millisecond)
		return &Artifact{Design: spec.Design}, nil
	}
	cfg := testConfig(slow)
	cfg.TenantBudget = 20 * time.Millisecond
	cfg.WALPath = walPath
	s1 := mustServer(t, cfg)
	j, _ := s1.Submit(spec("burner"))
	if got, _ := s1.WaitJob(context.Background(), j.ID); got.State != JobDone {
		t.Fatalf("job state = %s", got.State)
	}
	s1.Kill()

	cfg2 := testConfig(slow)
	cfg2.TenantBudget = 20 * time.Millisecond
	cfg2.WALPath = walPath
	s2 := mustServer(t, cfg2)
	defer shutdown(t, s2)
	if _, err := s2.Submit(spec("burner")); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-restart submit err = %v, want ErrBudgetExhausted", err)
	}
}

// TestRealMiningJob runs one real end-to-end job (no runner seam), then a
// second identical job whose every verdict comes from the shared cross-run
// cache and whose canonical artifact is byte-identical to the first.
func TestRealMiningJob(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 8, MaxAttempts: 2,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond,
		DrainTimeout: 30 * time.Second}
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	j1, err := s.Submit(JobSpec{Tenant: "t1", Request: Request{Design: "arbiter2"}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got1, err := s.WaitJob(context.Background(), j1.ID)
	if err != nil || got1.State != JobDone {
		t.Fatalf("job1 = %+v, %v", got1, err)
	}
	if got1.Artifact.Canonical == "" || !got1.Artifact.Converged {
		t.Fatalf("artifact = %+v, want converged canonical", got1.Artifact)
	}

	// Second identical job: fresh engine, warm cross-run verdict cache.
	j2, err := s.Submit(JobSpec{Tenant: "t2", Request: Request{Design: "arbiter2"}})
	if err != nil {
		t.Fatalf("submit2: %v", err)
	}
	got2, err := s.WaitJob(context.Background(), j2.ID)
	if err != nil || got2.State != JobDone {
		t.Fatalf("job2 = %+v, %v", got2, err)
	}
	if got1.Artifact.Canonical != got2.Artifact.Canonical {
		t.Fatal("same spec produced different canonical artifacts")
	}
	if a := got2.Artifact; a.CacheHits == 0 || a.CacheMisses != 0 {
		t.Fatalf("second run cache hits/misses = %d/%d, want all verdicts from the cross-run cache",
			a.CacheHits, a.CacheMisses)
	}
}

// TestTracedJobMatchesDefault: a server wired to a Tracer produces
// byte-identical canonical artifacts to a plain server, and its /statsz
// payload surfaces the solver search counters.
func TestTracedJobMatchesDefault(t *testing.T) {
	tel := telemetry.New(telemetry.NewRegistry(), nil)
	cfg := Config{Workers: 1, QueueDepth: 8, MaxAttempts: 2,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond,
		DrainTimeout: 30 * time.Second, Tracer: tel}
	s := mustServer(t, cfg)
	defer shutdown(t, s)

	plain := mustServer(t, Config{Workers: 1, QueueDepth: 8, MaxAttempts: 2,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond,
		DrainTimeout: 30 * time.Second})
	defer shutdown(t, plain)

	run := func(srv *Server) *Artifact {
		j, err := srv.Submit(JobSpec{Tenant: "t1", Request: Request{Design: "fetch"}})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		got, err := srv.WaitJob(context.Background(), j.ID)
		if err != nil || got.State != JobDone {
			t.Fatalf("job = %+v, %v", got, err)
		}
		return got.Artifact
	}
	a, b := run(s), run(plain)
	if a.Canonical != b.Canonical {
		t.Fatal("traced server produced a different canonical artifact")
	}

	st := s.Stats()
	if st.Solver == nil {
		t.Fatal("stats.Solver is nil with a Tracer wired")
	}
	if st.Solver["sat.solves"] == 0 {
		t.Fatalf("stats.Solver[sat.solves] = 0, want > 0 (solver %v)", st.Solver)
	}
	if plain.Stats().Solver != nil {
		t.Fatal("stats.Solver should be absent without a Tracer")
	}
}

// TestKillRestartRealJobs is the durability contract on real mining jobs:
// 24 arbiter2/decode jobs over four tenants on a journaled daemon that is
// killed once at least half are done, then restarted on the same WAL. Every
// job must end done, and every artifact finished before the kill must be
// byte-identical after the restart, whether the WAL re-served it or (when a
// job finished as the kill landed) it was recomputed.
func TestKillRestartRealJobs(t *testing.T) {
	const jobs = 24
	cfg := Config{Workers: 2, QueueDepth: 2 * jobs, MaxAttempts: 3,
		DrainTimeout: time.Minute, MaxJobWorkers: 1,
		WALPath: filepath.Join(t.TempDir(), "wal.jsonl")}
	s1 := mustServer(t, cfg)
	ids := make([]string, jobs)
	for i := range ids {
		j, err := s1.Submit(JobSpec{Tenant: fmt.Sprintf("tenant%d", i%4),
			Request: Request{Design: []string{"arbiter2", "decode"}[i%2]}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID
	}
	doneArtifacts := func() map[string]string {
		done := map[string]string{}
		for _, id := range ids {
			if j, ok := s1.Job(id); ok && j.State == JobDone && j.Artifact != nil {
				done[id] = j.Artifact.Canonical
			}
		}
		return done
	}
	for len(doneArtifacts()) < jobs/2 {
		time.Sleep(time.Millisecond)
	}
	s1.Kill()
	preKill := doneArtifacts()

	s2 := mustServer(t, cfg)
	defer shutdown(t, s2)
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		j, err := s2.WaitJob(ctx, id)
		cancel()
		if err != nil || j.State != JobDone {
			t.Fatalf("job %s after restart = %+v, %v", id, j, err)
		}
		if canon, ok := preKill[id]; ok && (j.Artifact == nil || j.Artifact.Canonical != canon) {
			t.Errorf("job %s: artifact changed across the kill", id)
		}
	}
	// The jobs seen done before Kill were journaled before it disabled the
	// WAL, so the restart re-serves at least those without recomputing.
	if st := s2.Stats(); st.RecoveredDone < jobs/2 {
		t.Errorf("%d jobs re-served from the WAL, want >= %d", st.RecoveredDone, jobs/2)
	}
}

// TestDefaultConfigIsZeroDefaults: the defaults goldmined registers its
// flags with are the values New gives an unset Config.
func TestDefaultConfigIsZeroDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if got, want := fmt.Sprintf("%+v", c), fmt.Sprintf("%+v", DefaultConfig()); got != want {
		t.Errorf("zero Config defaults to %s, DefaultConfig is %s", got, want)
	}
}

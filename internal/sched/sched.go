// Package sched is the parallel mining scheduler of the GoldMine
// reproduction. The refinement loop is embarrassingly parallel at two levels
// — every output bit's mining run is independent, and in batched-check mode
// (paper Section 7) the leaf checks of one iteration are independent of each
// other — and this package supplies the two pieces that exploit it safely:
//
//   - A task pool (RunTasks): workers take tasks from one shared cursor in
//     index order, so a free worker always takes the next task and uneven
//     per-task cost never leaves a core idle while work is queued.
//     Cancellation drains the pool cleanly (queued tasks are abandoned,
//     running tasks finish on their own context discipline), and a panicking
//     task is isolated to its own slot — the worker recovers, reports the
//     fault, and moves on.
//
//   - A memoizing verdict cache (VerdictCache): every formal check is routed
//     through a concurrency-safe, single-flight cache keyed by the canonical
//     assertion form plus a design/options fingerprint, so identical
//     candidates mined for different outputs, regenerated across refinement
//     iterations, or re-checked across engines never hit the model checker
//     twice. Only decisive, budget-clean verdicts are stored; degraded or
//     unknown results are returned to their caller but evicted so a later
//     caller with a healthier budget recomputes.
//
// Determinism contract: the pool identifies every task by its index and the
// caller merges results positionally, so `-j 1` and `-j N` produce the same
// mining artifacts (assertions, counterexample stimuli, iteration stats).
// Scheduler telemetry — which worker ran a task, cache hit/shared counts — is
// advisory and intentionally excluded from that contract: which worker
// computes a shared verdict first is a race the cache resolves safely but not
// reproducibly.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one independent unit of schedulable work. ID is the caller's merge
// index; Run must honour ctx cancellation on its own (the pool stops
// dispatching queued tasks once ctx is done but never kills a running one).
// worker is the index, in [0, Stats.Workers), of the worker running the task:
// no two tasks run on the same worker index at once, so callers can keep
// per-worker state (a solver session, a simulator) indexed by it.
type Task struct {
	ID  int
	Run func(ctx context.Context, worker int)
}

// PanicError records a panic isolated inside a pool worker.
type PanicError struct {
	TaskID int
	Value  any
	Stack  []byte
}

// Stats is the pool telemetry of one RunTasks call.
type Stats struct {
	// Workers is the number of worker goroutines used.
	Workers int
	// Tasks is the number of tasks submitted.
	Tasks int
	// Completed counts tasks that ran to completion (including ones whose
	// panic was isolated).
	Completed int64
	// Panics counts tasks whose panic was recovered by the worker barrier.
	Panics int64
}

// Workers clamps a worker-count request: n < 1 means GOMAXPROCS, and the
// count never exceeds the number of tasks it will serve.
func Workers(n, tasks int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if tasks > 0 && n > tasks {
		n = tasks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// RunTasks executes tasks on `workers` goroutines and blocks until every
// dispatched task has finished. Tasks are handed out from one shared cursor
// in index order, each to whichever worker is free. When ctx is cancelled,
// queued tasks are abandoned (their Run is never called); tasks already
// running are left to observe ctx themselves. A panic inside a task is
// recovered by the worker, reported through onPanic (if non-nil), and counted
// in Stats.Panics; the worker then continues with its next task.
func RunTasks(ctx context.Context, workers int, tasks []Task, onPanic func(Task, *PanicError)) Stats {
	workers = Workers(workers, len(tasks))
	st := Stats{Workers: workers, Tasks: len(tasks)}
	if len(tasks) == 0 {
		return st
	}
	var next, completed, panics atomic.Int64
	run := func(t Task, w int) {
		defer func() {
			if r := recover(); r != nil {
				panics.Add(1)
				if onPanic != nil {
					buf := make([]byte, 16<<10)
					buf = buf[:runtime.Stack(buf, false)]
					onPanic(t, &PanicError{TaskID: t.ID, Value: r, Stack: buf})
				}
			}
			completed.Add(1)
		}()
		t.Run(ctx, w)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(tasks)) {
					return
				}
				run(tasks[i], w)
			}
		}(w)
	}
	wg.Wait()
	st.Completed = completed.Load()
	st.Panics = panics.Load()
	return st
}

// Package sched is the parallel mining scheduler of the GoldMine
// reproduction. The refinement loop is embarrassingly parallel at two levels
// — every output bit's mining run is independent, and in batched-check mode
// (paper Section 7) the leaf checks of one iteration are independent of each
// other — and this package supplies the two pieces that exploit it safely:
//
//   - A work-stealing task pool (RunTasks): tasks are sharded round-robin
//     onto per-worker deques; a worker drains its own deque front-to-back and
//     steals from the tail of a sibling's deque when it runs dry, so uneven
//     per-output mining cost never leaves a core idle. Cancellation drains
//     the pool cleanly (queued tasks are abandoned, running tasks finish on
//     their own context discipline), and a panicking task is isolated to its
//     own slot — the worker recovers, reports the fault, and moves on.
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
// Scheduler telemetry — tasks stolen, cache hit/shared counts — is advisory
// and intentionally excluded from that contract: which worker computes a
// shared verdict first is a race the cache resolves safely but not
// reproducibly.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"goldmine/internal/telemetry"
)

// Task is one independent unit of schedulable work. ID is the caller's merge
// index; Run must honour ctx cancellation on its own (the pool stops
// dispatching queued tasks once ctx is done but never kills a running one).
type Task struct {
	ID  int
	Run func(ctx context.Context)
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
	// Stolen counts tasks executed by a worker other than the one whose
	// deque they were initially sharded onto.
	Stolen int64
	// Panics counts tasks whose panic was recovered by the worker barrier.
	Panics int64
}

// deque is a mutex-guarded double-ended task queue. The owner pops from the
// front; thieves steal from the back, minimizing contention on the hot end.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (q *deque) popFront() (Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return Task{}, false
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t, true
}

func (q *deque) popBack() (Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tasks) == 0 {
		return Task{}, false
	}
	t := q.tasks[len(q.tasks)-1]
	q.tasks = q.tasks[:len(q.tasks)-1]
	return t, true
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

// RunTasks executes tasks on `workers` goroutines with work stealing and
// blocks until every dispatched task has finished. Tasks never spawn tasks,
// so an empty set of deques is a terminal state. When ctx is cancelled,
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
	queues := make([]*deque, workers)
	for i := range queues {
		queues[i] = &deque{}
	}
	for i, t := range tasks {
		q := queues[i%workers]
		q.tasks = append(q.tasks, t)
	}
	var completed, stolen, panics int64
	run := func(t Task, theft bool) {
		defer func() {
			if r := recover(); r != nil {
				atomic.AddInt64(&panics, 1)
				if onPanic != nil {
					buf := make([]byte, 16<<10)
					buf = buf[:runtime.Stack(buf, false)]
					onPanic(t, &PanicError{TaskID: t.ID, Value: r, Stack: buf})
				}
			}
			atomic.AddInt64(&completed, 1)
		}()
		if theft {
			atomic.AddInt64(&stolen, 1)
			// Advisory journal event: which worker steals which task is a
			// benign race, so steals are telemetry, never artifacts.
			if tr := telemetry.ContextTracer(ctx); tr != nil {
				tr.Event("sched.steal", telemetry.Int("task", int64(t.ID)))
				tr.Registry().Counter("sched.steals").Inc()
			}
		}
		t.Run(ctx)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			own := queues[w]
			for {
				if ctx.Err() != nil {
					return // drain: abandon queued tasks
				}
				if t, ok := own.popFront(); ok {
					run(t, false)
					continue
				}
				// Own deque dry: steal from siblings, scanning outward so
				// concurrent thieves start at different victims.
				found := false
				for off := 1; off < workers; off++ {
					if t, ok := queues[(w+off)%workers].popBack(); ok {
						run(t, true)
						found = true
						break
					}
				}
				if !found {
					return // every deque empty — no task creates tasks
				}
			}
		}(w)
	}
	wg.Wait()
	st.Completed = completed
	st.Stolen = stolen
	st.Panics = panics
	return st
}

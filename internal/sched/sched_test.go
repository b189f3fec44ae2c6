package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunTasksRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 40
		var ran [n]int32
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{ID: i, Run: func(context.Context, int) {
				atomic.AddInt32(&ran[i], 1)
			}}
		}
		st := RunTasks(context.Background(), workers, tasks, nil)
		for i := range ran {
			if ran[i] != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, ran[i])
			}
		}
		if st.Completed != n {
			t.Fatalf("workers=%d: Completed = %d, want %d", workers, st.Completed, n)
		}
		if st.Workers > workers || st.Workers > n {
			t.Fatalf("workers=%d: resolved Workers = %d", workers, st.Workers)
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	if w := Workers(0, 10); w < 1 {
		t.Fatalf("Workers(0,10) = %d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8,3) = %d, want 3", w)
	}
	if w := Workers(-2, 0); w < 1 {
		t.Fatalf("Workers(-2,0) = %d", w)
	}
}

// TestRunTasksNoIdleWorker: task 0 blocks until every other task has run, so
// with two workers the second must take tasks 1..n-1 on its own. A static
// shard (task i pinned to worker i mod 2) would leave the odd tasks queued
// behind task 0 and hang until the timeout.
func TestRunTasksNoIdleWorker(t *testing.T) {
	const n = 9
	var rest atomic.Int32
	allRan := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	timedOut := false
	tasks := make([]Task, n)
	tasks[0] = Task{ID: 0, Run: func(ctx context.Context, _ int) {
		select {
		case <-allRan:
		case <-ctx.Done():
			timedOut = true
		}
	}}
	for i := 1; i < n; i++ {
		tasks[i] = Task{ID: i, Run: func(context.Context, int) {
			if rest.Add(1) == n-1 {
				close(allRan)
			}
		}}
	}
	st := RunTasks(ctx, 2, tasks, nil)
	if timedOut {
		t.Fatalf("task 0 waited out the timeout: %d of %d other tasks ran", rest.Load(), n-1)
	}
	if st.Completed != n {
		t.Fatalf("Completed = %d, want %d", st.Completed, n)
	}
}

// TestRunTasksExclusiveWorkerIndex: no two running tasks ever share a worker
// index, and every index is in [0, Workers). Run under -race, the per-index
// flag is also what a caller's per-worker state would be.
func TestRunTasksExclusiveWorkerIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 200
		inUse := make([]atomic.Bool, workers)
		owner := make([]int, workers) // per-worker state, written without locks
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{ID: i, Run: func(_ context.Context, w int) {
				if w < 0 || w >= workers {
					t.Errorf("workers=%d: task %d got worker index %d", workers, i, w)
					return
				}
				if !inUse[w].CompareAndSwap(false, true) {
					t.Errorf("workers=%d: worker index %d handed to two running tasks", workers, w)
					return
				}
				owner[w] = i
				runtime.Gosched()
				if owner[w] != i {
					t.Errorf("workers=%d: worker %d state overwritten while task %d ran", workers, w, i)
				}
				inUse[w].Store(false)
			}}
		}
		st := RunTasks(context.Background(), workers, tasks, nil)
		if st.Completed != n {
			t.Fatalf("workers=%d: Completed = %d, want %d", workers, st.Completed, n)
		}
	}
}

func TestRunTasksCancellationDrains(t *testing.T) {
	// The first tasks cancel the context themselves; queued tasks must be
	// abandoned without running, and RunTasks must still return.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 64
	var ran int64
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{ID: i, Run: func(context.Context, int) {
			atomic.AddInt64(&ran, 1)
			if i < 2 {
				cancel()
			}
		}}
	}
	st := RunTasks(ctx, 2, tasks, nil)
	if st.Completed != atomic.LoadInt64(&ran) {
		t.Fatalf("Completed = %d, ran = %d", st.Completed, ran)
	}
	if st.Completed == n {
		t.Fatal("cancellation did not abandon any queued task")
	}
}

func TestRunTasksPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	tasks := []Task{{ID: 0, Run: func(context.Context, int) { atomic.AddInt64(&ran, 1) }}}
	st := RunTasks(ctx, 4, tasks, nil)
	if ran != 0 || st.Completed != 0 {
		t.Fatalf("pre-cancelled pool ran %d tasks (completed %d)", ran, st.Completed)
	}
}

func TestRunTasksPanicIsolation(t *testing.T) {
	var mu sync.Mutex
	var caught []*PanicError
	var ran int64
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{ID: i, Run: func(context.Context, int) {
			if i%3 == 0 {
				panic("hostile task")
			}
			atomic.AddInt64(&ran, 1)
		}}
	}
	st := RunTasks(context.Background(), 3, tasks, func(task Task, pe *PanicError) {
		mu.Lock()
		defer mu.Unlock()
		if pe.TaskID != task.ID {
			t.Errorf("PanicError.TaskID = %d, task.ID = %d", pe.TaskID, task.ID)
		}
		if len(pe.Stack) == 0 {
			t.Error("missing panic stack")
		}
		caught = append(caught, pe)
	})
	if st.Panics != 3 {
		t.Fatalf("Panics = %d, want 3", st.Panics)
	}
	if len(caught) != 3 {
		t.Fatalf("onPanic called %d times, want 3", len(caught))
	}
	if ran != 5 {
		t.Fatalf("non-panicking tasks ran %d times, want 5", ran)
	}
	if st.Completed != 8 {
		t.Fatalf("Completed = %d, want 8 (panicking tasks still complete)", st.Completed)
	}
}

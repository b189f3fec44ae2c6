package sched

import (
	"context"
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
			tasks[i] = Task{ID: i, Run: func(context.Context) {
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

func TestRunTasksStealing(t *testing.T) {
	// One worker's deque gets every slow task (round-robin with 2 workers and
	// slow tasks at even indices); the other must steal to stay busy. With a
	// blocking rendezvous we force both workers to be active at once, so at
	// least one steal is guaranteed: worker 1's own deque holds one quick
	// task, and the gate only opens once worker 1 has entered a stolen task.
	gate := make(chan struct{})
	entered := make(chan int, 16)
	tasks := []Task{
		{ID: 0, Run: func(ctx context.Context) {
			// Worker 0 parks here until another worker steals task 2 or 3.
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}},
		{ID: 1, Run: func(context.Context) {}},
		{ID: 2, Run: func(context.Context) { entered <- 2; close(gate) }},
		{ID: 3, Run: func(context.Context) {}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st := RunTasks(ctx, 2, tasks, nil)
	if st.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", st.Completed)
	}
	if st.Stolen == 0 {
		t.Fatal("expected at least one stolen task")
	}
	select {
	case <-entered:
	default:
		t.Fatal("task 2 never ran")
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
		tasks[i] = Task{ID: i, Run: func(context.Context) {
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
	tasks := []Task{{ID: 0, Run: func(context.Context) { atomic.AddInt64(&ran, 1) }}}
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
		tasks[i] = Task{ID: i, Run: func(context.Context) {
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

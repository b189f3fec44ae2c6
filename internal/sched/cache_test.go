package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"goldmine/internal/mc"
	"goldmine/internal/rtl"
)

func proved() (*mc.Result, error) {
	return &mc.Result{Status: mc.StatusProved, Method: "test"}, nil
}

func TestCacheHitOnSecondCheck(t *testing.T) {
	c := NewVerdictCache()
	var computes int32
	compute := func() (*mc.Result, error) {
		atomic.AddInt32(&computes, 1)
		return proved()
	}
	ctx := context.Background()
	r1, o1, err := c.Check(ctx, "k", compute)
	if err != nil || o1 != Computed || r1.Status != mc.StatusProved {
		t.Fatalf("first check: %v %v %v", r1, o1, err)
	}
	r2, o2, err := c.Check(ctx, "k", compute)
	if err != nil || o2 != Hit || r2.Status != mc.StatusProved {
		t.Fatalf("second check: %v %v %v", r2, o2, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if r1 == r2 {
		t.Fatal("cache handed out its stored *Result instead of a copy")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stored != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestCacheDoesNotStoreIndecisiveVerdicts(t *testing.T) {
	cases := []*mc.Result{
		{Status: mc.StatusUnknown, Cause: mc.ErrBudgetExceeded},
		{Status: mc.StatusProved, Degraded: true},
		{Status: mc.StatusBounded, Cause: mc.ErrBudgetExceeded},
	}
	for i, bad := range cases {
		c := NewVerdictCache()
		var computes int32
		compute := func() (*mc.Result, error) {
			atomic.AddInt32(&computes, 1)
			return bad, nil
		}
		for n := 0; n < 2; n++ {
			if _, o, err := c.Check(context.Background(), "k", compute); err != nil || o != Computed {
				t.Fatalf("case %d check %d: outcome %v err %v", i, n, o, err)
			}
		}
		if computes != 2 {
			t.Fatalf("case %d: computed %d times, want 2 (no store)", i, computes)
		}
		if c.Len() != 0 {
			t.Fatalf("case %d: %d entries retained", i, c.Len())
		}
	}
}

func TestCacheDoesNotStoreErrors(t *testing.T) {
	c := NewVerdictCache()
	boom := errors.New("boom")
	if _, _, err := c.Check(context.Background(), "k", func() (*mc.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error entry retained")
	}
	if _, o, err := c.Check(context.Background(), "k", proved); err != nil || o != Computed {
		t.Fatalf("recompute after error: %v %v", o, err)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewVerdictCache()
	started := make(chan struct{})
	release := make(chan struct{})
	var computes int32
	go func() {
		c.Check(context.Background(), "k", func() (*mc.Result, error) {
			atomic.AddInt32(&computes, 1)
			close(started)
			<-release
			return proved()
		})
	}()
	<-started
	const waiters = 4
	var wg sync.WaitGroup
	var sharedCount int32
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, o, err := c.Check(context.Background(), "k", func() (*mc.Result, error) {
				atomic.AddInt32(&computes, 1)
				return proved()
			})
			if err != nil || r.Status != mc.StatusProved {
				t.Errorf("waiter: %v %v", r, err)
			}
			if o == Shared {
				atomic.AddInt32(&sharedCount, 1)
			}
		}()
	}
	// Give the waiters a moment to attach to the in-flight entry, then let
	// the leader finish. Late waiters score a Hit instead of Shared — both
	// mean the checker ran once.
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (single flight)", computes)
	}
	st := c.Stats()
	if st.Shared != int64(sharedCount) {
		t.Fatalf("stats.Shared = %d, observed %d Shared outcomes", st.Shared, sharedCount)
	}
}

func TestCacheCancelWhileWaiting(t *testing.T) {
	c := NewVerdictCache()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Check(context.Background(), "k", func() (*mc.Result, error) {
			close(started)
			<-release
			return proved()
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Check(ctx, "k", proved)
		done <- err
	}()
	cancel()
	err := <-done
	if !errors.Is(err, mc.ErrCanceled) {
		t.Fatalf("err = %v, want mc.ErrCanceled", err)
	}
	close(release)
}

func TestCacheLeaderPanicFailsWaiters(t *testing.T) {
	c := NewVerdictCache()
	started := make(chan struct{})
	release := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.Check(context.Background(), "k", func() (*mc.Result, error) {
			close(started)
			<-release
			panic("hostile checker")
		})
	}()
	<-started
	waitErr := make(chan error, 1)
	go func() {
		_, _, err := c.Check(context.Background(), "k", proved)
		waitErr <- err
	}()
	// The waiter may attach to the in-flight entry or, if it arrives after
	// the eviction, become a fresh leader — either way it must not hang and
	// must not observe the panic.
	close(release)
	if v := <-leaderPanicked; v == nil {
		t.Fatal("leader's panic was swallowed instead of re-raised")
	}
	if err := <-waitErr; err != nil && !errors.Is(err, ErrCheckPanicked) {
		t.Fatalf("waiter err = %v", err)
	}
	if c.Len() != 0 {
		// A fresh-leader waiter stores a proved verdict; an attached waiter
		// leaves the cache empty. Only the panicked entry must be gone.
		st := c.Stats()
		if st.Stored == 0 {
			t.Fatal("panicked entry retained")
		}
	}
}

func TestCacheLRUBound(t *testing.T) {
	const capacity = 8
	c := NewVerdictCacheSized(capacity)
	if c.Capacity() != capacity {
		t.Fatalf("Capacity() = %d, want %d", c.Capacity(), capacity)
	}
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < 3*capacity; i++ {
		if _, _, err := c.Check(ctx, key(i), proved); err != nil {
			t.Fatal(err)
		}
		if got := c.Len(); got > capacity {
			t.Fatalf("after %d stores: Len() = %d exceeds capacity %d", i+1, got, capacity)
		}
	}
	st := c.Stats()
	if st.Stored != 3*capacity {
		t.Fatalf("Stored = %d, want %d", st.Stored, 3*capacity)
	}
	if st.Evicted != 2*capacity {
		t.Fatalf("Evicted = %d, want %d", st.Evicted, 2*capacity)
	}
	// The survivors are exactly the most recent `capacity` keys.
	for i := 2 * capacity; i < 3*capacity; i++ {
		if _, o, _ := c.Check(ctx, key(i), proved); o != Hit {
			t.Fatalf("recent key %d: outcome %v, want Hit", i, o)
		}
	}
	if _, o, _ := c.Check(ctx, key(0), proved); o != Computed {
		t.Fatalf("cold key 0: outcome %v, want Computed (evicted)", o)
	}
}

func TestCacheLRUTouchOnHit(t *testing.T) {
	// A hit refreshes recency: the entry hit most recently must outlive
	// colder entries stored after it.
	const capacity = 4
	c := NewVerdictCacheSized(capacity)
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < capacity; i++ {
		c.Check(ctx, key(i), proved)
	}
	// Touch k0, then push two new keys: k1 and k2 must fall out, k0 stays.
	if _, o, _ := c.Check(ctx, key(0), proved); o != Hit {
		t.Fatalf("touch: outcome %v, want Hit", o)
	}
	c.Check(ctx, key(capacity), proved)
	c.Check(ctx, key(capacity+1), proved)
	if _, o, _ := c.Check(ctx, key(0), proved); o != Hit {
		t.Fatalf("touched key evicted: outcome %v, want Hit", o)
	}
	if _, o, _ := c.Check(ctx, key(1), proved); o != Computed {
		t.Fatalf("cold key survived past capacity: outcome %v, want Computed", o)
	}
}

func TestCacheInFlightEntriesAreNotEvicted(t *testing.T) {
	// An in-flight leader's entry must survive any amount of store pressure:
	// waiters hold its done channel.
	c := NewVerdictCacheSized(2)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Check(context.Background(), "inflight", func() (*mc.Result, error) {
			close(started)
			<-release
			return proved()
		})
	}()
	<-started
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		c.Check(ctx, fmt.Sprintf("filler%d", i), proved)
	}
	got := make(chan Outcome, 1)
	go func() {
		_, o, _ := c.Check(ctx, "inflight", proved)
		got <- o
	}()
	close(release)
	if o := <-got; o != Shared && o != Hit {
		t.Fatalf("waiter outcome %v, want Shared or Hit", o)
	}
}

func TestCacheConcurrentSingleFlight(t *testing.T) {
	c := NewVerdictCacheSized(1024)
	ctx := context.Background()
	const n = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, _, err := c.Check(ctx, fmt.Sprintf("key-%d", i), proved); err != nil {
					t.Errorf("check: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != n {
		t.Fatalf("Misses = %d, want %d (single flight)", st.Misses, n)
	}
	if got := st.Lookups(); got != 4*n {
		t.Fatalf("Lookups = %d, want %d", got, 4*n)
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
}

func TestFingerprints(t *testing.T) {
	src := `module m(input a, output y); assign y = ~a; endmodule`
	d1, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if DesignFingerprint(d1) != DesignFingerprint(d2) {
		t.Fatal("identical designs fingerprint differently")
	}
	d3, err := rtl.ElaborateSource(`module m(input a, output y); assign y = a; endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	if DesignFingerprint(d1) == DesignFingerprint(d3) {
		t.Fatal("different designs share a fingerprint")
	}
	o1, o2 := mc.DefaultOptions(), mc.DefaultOptions()
	if OptionsFingerprint(o1) != OptionsFingerprint(o2) {
		t.Fatal("identical options fingerprint differently")
	}
	o2.MaxBMCDepth++
	if OptionsFingerprint(o1) == OptionsFingerprint(o2) {
		t.Fatal("different options share a fingerprint")
	}
}

// Verdict cache: a concurrency-safe, single-flight memo table in front of the
// model checker. See the package comment for the role it plays in the
// scheduler.
//
// The cache is LRU-bounded so one instance can serve two very different
// lifetimes: the private per-run cache every engine keeps and the
// process-wide cross-run cache of the goldmined daemon, where many tenants
// mining the same design share warm entries across jobs and the cache must
// survive for days without growing past its budget.
package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/telemetry"
)

// ErrCheckPanicked is the error waiters of a single-flight check observe when
// the goroutine computing the shared verdict panicked. The panicking caller
// itself sees the original panic (re-raised in its own goroutine so the
// engine's recover barrier attributes it correctly); waiters get this error
// and degrade their own leaf through the usual fault-isolation path.
var ErrCheckPanicked = errors.New("sched: in-flight check panicked")

// DefaultCacheCapacity bounds a NewVerdictCache instance: per-run caches top
// out in the low thousands of decisive verdicts on the bundled designs, so
// 64k entries is effectively "unbounded for a run" while still guaranteeing
// the cache cannot grow without limit on a pathological workload.
const DefaultCacheCapacity = 1 << 16

// Outcome classifies how a VerdictCache.Check call was served.
type Outcome int

const (
	// Computed: this caller ran the model checker (cache miss, leader).
	Computed Outcome = iota
	// Hit: a stored verdict was returned without any model-checker work.
	Hit
	// Shared: the verdict was being computed by another goroutine; this
	// caller waited for it (a deduplicated concurrent check).
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "computed"
	}
}

// CacheStats is a snapshot of VerdictCache telemetry.
type CacheStats struct {
	// Hits counts lookups served from a stored verdict.
	Hits int64
	// Shared counts lookups that waited on an identical in-flight check.
	Shared int64
	// Misses counts lookups that had to run the model checker.
	Misses int64
	// Stored counts verdicts retained (decisive and budget-clean).
	Stored int64
	// Evicted counts stored verdicts pushed out by the LRU bound.
	Evicted int64
}

// Lookups is the total number of Check calls behind the snapshot.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Shared + s.Misses }

// HitRate is the fraction of lookups that avoided model-checker work
// (stored hits plus deduplicated in-flight shares).
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits+s.Shared) / float64(n)
	}
	return 0
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when res/err are final
	res  *mc.Result
	err  error

	// Intrusive LRU links, valid only while resident (stored in the cache's
	// recency list). In-flight entries are not resident: they cannot be
	// evicted while a leader is computing and waiters hold their done
	// channel.
	prev, next *cacheEntry
	resident   bool
}

// VerdictCache memoizes model-checker verdicts under canonical keys. It is
// safe for concurrent use by any number of goroutines. Identical concurrent
// checks are single-flighted: one caller (the leader) runs the checker while
// the others wait for its verdict.
//
// Storage policy: only decisive, budget-clean verdicts (proved / falsified /
// bounded, not degraded, no recorded cause) are retained. Unknown or degraded
// verdicts are returned to their caller but evicted immediately — they
// reflect that caller's budget, not the assertion, and a later caller with a
// healthier budget must be free to recompute. Hard errors and panics are
// likewise never cached.
//
// Residency is bounded: the cache keeps its stored entries on an LRU list
// and evicts the coldest ones once its capacity is exceeded, so a
// long-lived cross-run cache degrades by recomputing cold verdicts, never by
// exhausting memory.
type VerdictCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru is the sentinel of the doubly-linked recency ring: lru.next is the
	// most recently used resident entry, lru.prev the coldest.
	lru      cacheEntry
	resident int
	capacity int // max resident entries; <= 0 means unbounded

	hits, shared, misses, stored, evicted int64
}

// NewVerdictCache creates a cache bounded at DefaultCacheCapacity — the
// per-run configuration.
func NewVerdictCache() *VerdictCache {
	return NewVerdictCacheSized(DefaultCacheCapacity)
}

// NewVerdictCacheSized creates a cache holding at most capacity stored
// verdicts. A capacity <= 0 means unbounded.
func NewVerdictCacheSized(capacity int) *VerdictCache {
	c := &VerdictCache{entries: map[string]*cacheEntry{}, capacity: max(capacity, 0)}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// Capacity returns the resident-entry bound (0 = unbounded).
func (c *VerdictCache) Capacity() int { return c.capacity }

// Stats returns a consistent snapshot of the telemetry counters.
func (c *VerdictCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Shared: c.shared, Misses: c.misses, Stored: c.stored, Evicted: c.evicted}
}

// Len returns the number of stored or in-flight entries.
func (c *VerdictCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheable reports whether a verdict may be stored: decisive and untouched
// by budget pressure, so any later caller would compute exactly the same one.
func cacheable(res *mc.Result) bool {
	if res == nil || res.Degraded || res.Cause != nil {
		return false
	}
	switch res.Status {
	case mc.StatusProved, mc.StatusFalsified, mc.StatusBounded:
		return true
	default:
		return false
	}
}

// result hands a terminal entry to a caller: a shallow copy of the verdict so
// callers can own their Result struct, with the counterexample stimulus
// shared read-only (nothing downstream mutates it).
func (e *cacheEntry) result() (*mc.Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	r := *e.res
	return &r, nil
}

// unlink removes e from the recency ring. Caller holds c.mu.
func (c *VerdictCache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	e.resident = false
	c.resident--
}

// linkFront marks e most-recently-used. Caller holds c.mu.
func (c *VerdictCache) linkFront(e *cacheEntry) {
	e.next = c.lru.next
	e.prev = &c.lru
	c.lru.next.prev = e
	c.lru.next = e
	e.resident = true
	c.resident++
}

// touch refreshes e's recency. Caller holds c.mu.
func (c *VerdictCache) touch(e *cacheEntry) {
	if !e.resident {
		return
	}
	c.unlink(e)
	c.linkFront(e)
}

// store makes a terminal entry resident and evicts past the capacity bound.
// Caller holds c.mu.
func (c *VerdictCache) store(e *cacheEntry) {
	c.stored++
	c.linkFront(e)
	for c.capacity > 0 && c.resident > c.capacity {
		cold := c.lru.prev
		if cold == &c.lru {
			break
		}
		c.unlink(cold)
		delete(c.entries, cold.key)
		c.evicted++
	}
}

// Check routes one formal check through the cache. compute is invoked in the
// calling goroutine when the key is absent (so panics surface to the caller's
// own recover barrier, with waiters failed via ErrCheckPanicked). When an
// identical check is already in flight, Check blocks until the leader's
// verdict lands or ctx dies; a context death while waiting is reported as
// mc.ErrCanceled, matching the checker's own budget taxonomy.
func (c *VerdictCache) Check(ctx context.Context, key string, compute func() (*mc.Result, error)) (*mc.Result, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.done: // terminal entry: a stored decisive verdict
			c.hits++
			c.touch(e)
			c.mu.Unlock()
			res, err := e.result()
			return res, Hit, err
		default: // in flight: wait for the leader
			c.shared++
			c.mu.Unlock()
			// A deduplicated concurrent check: advisory (which caller leads is a
			// benign race).
			if tr := telemetry.ContextTracer(ctx); tr != nil {
				tr.Event("sched.dedup")
				tr.Registry().Counter("sched.dedups").Inc()
			}
			select {
			case <-e.done:
				res, err := e.result()
				return res, Shared, err
			case <-ctx.Done():
				return nil, Shared, fmt.Errorf("%w: while waiting on shared check: %v", mc.ErrCanceled, ctx.Err())
			}
		}
	}
	// Leader: compute in this goroutine under a fresh in-flight entry.
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		// compute panicked: fail the waiters, evict, and let the panic
		// continue into the caller's recover barrier.
		e.err = ErrCheckPanicked
		c.evict(key, e)
		close(e.done)
	}()
	res, err := compute()
	finished = true
	e.res, e.err = res, err
	if err != nil || !cacheable(res) {
		c.evict(key, e)
	} else {
		c.mu.Lock()
		if c.entries[key] == e {
			c.store(e)
		}
		c.mu.Unlock()
	}
	close(e.done)
	if err != nil {
		return nil, Computed, err
	}
	return res, Computed, nil
}

// evict removes the entry if it still owns the key.
func (c *VerdictCache) evict(key string, e *cacheEntry) {
	c.mu.Lock()
	if c.entries[key] == e {
		delete(c.entries, key)
		if e.resident {
			c.unlink(e)
		}
	}
	c.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Cache key fingerprints
// ---------------------------------------------------------------------------

// DesignFingerprint hashes the structural identity of a design — name,
// signal declarations, and the canonical rendering of every combinational and
// next-state expression — so verdicts cached for one design can never leak
// onto another, even across engines sharing one cache.
func DesignFingerprint(d *rtl.Design) string {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(d.Name)
	write(d.Clock)
	for _, s := range d.Signals {
		write(fmt.Sprintf("%s:%d:%v:%v", s.Name, s.Width, s.Kind, s.IsState))
	}
	lines := make([]string, 0, len(d.Comb)+len(d.Next))
	for s, e := range d.Comb {
		lines = append(lines, "c "+s.Name+" = "+rtl.String(e))
	}
	for s, e := range d.Next {
		lines = append(lines, "n "+s.Name+" <= "+rtl.String(e))
	}
	sort.Strings(lines)
	for _, l := range lines {
		write(l)
	}
	return fmt.Sprintf("d%016x", h.Sum64())
}

// OptionsFingerprint hashes the model-checker limits. Budgets and engine
// bounds are part of the cache key: two checkers with different limits may
// legitimately return different bounded verdicts for the same assertion.
func OptionsFingerprint(opts mc.Options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", opts)
	return fmt.Sprintf("o%016x", h.Sum64())
}

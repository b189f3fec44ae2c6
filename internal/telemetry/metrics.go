// Package telemetry is the observability substrate of the GoldMine
// reproduction: lock-cheap metrics (counters, gauges, histograms), span-based
// tracing of every refinement-loop phase, and a structured JSONL event
// journal with bounded buffering and drop accounting.
//
// The package is built around one invariant: when telemetry is disabled the
// instrumented code pays (almost) nothing. Every type is nil-safe — a nil
// *Registry hands out nil *Counters whose Add is a single nil-check, a nil
// *Tracer starts nil *Spans whose Child/End are no-ops — so call sites are
// written unconditionally and the disabled fast path costs one predictable
// branch per event. The enabled hot path is atomics for metrics and one
// buffered, non-blocking channel send for journal events; the journal's
// writer goroutine does all marshaling off the instrumented path and counts
// (rather than blocks on) overflow.
//
// Naming convention: metric and span names are dotted lowercase,
// subsystem-first ("sat.propagations", "mine.iteration", "sched.dedup").
// DESIGN.md §4.4 documents the full taxonomy and the overhead contract.
package telemetry

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe on a nil
// receiver (no-ops / zero), which is the disabled fast path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. power-of-two ranges. 64
// buckets cover the whole uint64 range, so there is no overflow bucket.
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram of non-negative int64
// observations (durations in microseconds, work deltas, sizes). Observe is a
// single atomic add; Snapshot assembles a consistent-enough view for
// reporting (buckets are read individually, which is fine for monitoring).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// HistogramSnapshot is the read-side view of a Histogram. Buckets maps the
// inclusive upper bound of each non-empty power-of-two bucket to its count.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = map[string]int64{}
			}
			// Bucket i holds values whose bit length is i: upper bound 2^i - 1.
			var hi uint64
			if i >= 64 {
				hi = ^uint64(0)
			} else {
				hi = 1<<uint(i) - 1
			}
			s.Buckets[le(hi)] = n
		}
	}
	return s
}

func le(v uint64) string {
	// Small helper: decimal rendering without fmt on the snapshot path.
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Registry is a named collection of metrics. Metric lookup takes a mutex and
// is meant for setup time (instrumented subsystems cache the returned
// pointers); the metric operations themselves are atomic. A nil *Registry is
// the disabled state: it hands out nil metrics.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-serializable view of a Registry — the
// expvar-style dump behind -metrics-summary.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Nil-safe (returns a zero
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for n, c := range r.counts {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON (maps marshal with sorted
// keys, so the dump is deterministic for fixed counter values).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Names returns the sorted names of all registered metrics (useful in tests).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counts {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

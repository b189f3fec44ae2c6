package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"goldmine/internal/telemetry"
)

// benchPrefix marks the spans the benchmark itself opens around each timed
// call into the program. Their self time is the time inside a timed call that
// no program span covers: the unattributed row of the layer table.
const benchPrefix = "bench."

// journalBuffer is the event queue depth of the in-memory journal. The
// journal drops events rather than block the traced code when the queue is
// full, and a traced pass that dropped any event is rejected. The drain
// writes to memory, so it keeps up with the SAT-heavy mine designs (tens of
// thousands of spans per second) at four times the CLI's default depth.
const journalBuffer = 4 * telemetry.DefaultJournalBuffer

// memTrace is one traced pass: a tracer whose journal writes JSONL into
// memory, with a fresh metrics registry so counters are per pass.
type memTrace struct {
	buf bytes.Buffer
	tr  *telemetry.Tracer
}

func newMemTrace() *memTrace {
	mt := &memTrace{}
	mt.tr = telemetry.New(telemetry.NewRegistry(), telemetry.NewJournal(&mt.buf, journalBuffer))
	return mt
}

// span is one completed span of a journal, times in microseconds. label is
// the design a benchmark span was opened for (empty for program spans).
type span struct {
	id, parent uint64
	name       string
	start, end int64
	label      string
}

// journal is a parsed in-memory journal.
type journal struct {
	spans   []span
	written int64
	dropped int64
	closed  bool
}

// finish closes the tracer (draining its journal) and parses what it wrote.
func (mt *memTrace) finish() (*journal, telemetry.Snapshot, error) {
	snap := mt.tr.Registry().Snapshot()
	if err := mt.tr.Close(); err != nil {
		return nil, snap, err
	}
	j, err := parseJournal(mt.buf.Bytes())
	return j, snap, err
}

// parseJournal reads the span records and the close trailer of a telemetry
// journal.
func parseJournal(data []byte) (*journal, error) {
	j := &journal{}
	for n, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev struct {
			TS     int64  `json:"ts_us"`
			Kind   string `json:"kind"`
			Name   string `json:"name"`
			Span   uint64 `json:"span"`
			Parent uint64 `json:"parent"`
			Dur    int64  `json:"dur_us"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", n+1, err)
		}
		switch ev.Kind {
		case telemetry.KindSpan:
			sp := span{id: ev.Span, parent: ev.Parent, name: ev.Name, start: ev.TS, end: ev.TS + ev.Dur}
			if strings.HasPrefix(ev.Name, benchPrefix) {
				var attrs struct {
					Attrs struct {
						Design string `json:"design"`
					} `json:"attrs"`
				}
				if err := json.Unmarshal(line, &attrs); err != nil {
					return nil, fmt.Errorf("journal line %d: %w", n+1, err)
				}
				sp.label = attrs.Attrs.Design
			}
			j.spans = append(j.spans, sp)
		case telemetry.KindClose:
			var tr struct {
				Attrs struct {
					Written int64 `json:"written"`
					Dropped int64 `json:"dropped"`
				} `json:"attrs"`
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				return nil, fmt.Errorf("journal trailer: %w", err)
			}
			j.written, j.dropped, j.closed = tr.Attrs.Written, tr.Attrs.Dropped, true
		}
	}
	if !j.closed {
		return nil, fmt.Errorf("journal has no close trailer")
	}
	return j, nil
}

// layerTime is the accumulated self time and span count of one span name.
type layerTime struct {
	selfUS int64
	count  int64
	durUS  int64 // summed full durations (children included)
}

// ledger is the self-time accounting of one or more traced passes.
type ledger struct {
	names map[string]*layerTime
	// overlapUS is the time by which children of one parent overlap each
	// other (work running on several workers at once). Busy time is the
	// timed calls' wall time plus this overlap.
	overlapUS int64
	spans     int64
	// byDesign splits self time by the design of the timed call a span ran
	// under: design -> span name -> self µs.
	byDesign map[string]map[string]int64
}

func newLedger() *ledger {
	return &ledger{names: map[string]*layerTime{}, byDesign: map[string]map[string]int64{}}
}

func (l *ledger) layer(name string) *layerTime {
	lt := l.names[name]
	if lt == nil {
		lt = &layerTime{}
		l.names[name] = lt
	}
	return lt
}

// add accounts one journal's spans. A span's self time is its duration minus
// the part of its interval that its children cover (children clipped to the
// parent, overlapping children counted once). Spans with no parent must be
// benchmark spans; a parentless program span (the fault campaign opens its
// sim.batch spans as roots) is adopted by the benchmark span whose interval
// contains its start, since the benchmark makes one timed call at a time.
// A span naming a parent that is not in the journal is an error.
func (l *ledger) add(spans []span) error {
	byID := make(map[uint64]int, len(spans))
	var roots []int
	for i, s := range spans {
		if _, dup := byID[s.id]; dup {
			return fmt.Errorf("span id %d appears twice", s.id)
		}
		byID[s.id] = i
		if s.parent == 0 && strings.HasPrefix(s.name, benchPrefix) {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].start < spans[roots[b]].start })
	children := make(map[int][]int, len(spans))
	parent := make([]int, len(spans)) // index of the parent span, -1 for a root
	for i, s := range spans {
		switch {
		case s.parent == 0 && strings.HasPrefix(s.name, benchPrefix):
			parent[i] = -1
			continue
		case s.parent == 0:
			k := sort.Search(len(roots), func(k int) bool { return spans[roots[k]].start > s.start }) - 1
			if k < 0 || spans[roots[k]].end < s.start {
				return fmt.Errorf("root span %s (id %d) lies outside every timed call", s.name, s.id)
			}
			parent[i] = roots[k]
		default:
			p, ok := byID[s.parent]
			if !ok {
				return fmt.Errorf("span %s (id %d) names parent %d, which is not in the journal", s.name, s.id, s.parent)
			}
			parent[i] = p
		}
		children[parent[i]] = append(children[parent[i]], i)
	}
	// root[i] is the benchmark span that span i ran under.
	root := make([]int, len(spans))
	for i := range root {
		root[i] = -1
	}
	var rootOf func(i, depth int) (int, error)
	rootOf = func(i, depth int) (int, error) {
		if root[i] >= 0 {
			return root[i], nil
		}
		if depth > len(spans) {
			return 0, fmt.Errorf("span %s (id %d) is its own ancestor", spans[i].name, spans[i].id)
		}
		r := i
		if parent[i] >= 0 {
			var err error
			if r, err = rootOf(parent[i], depth+1); err != nil {
				return 0, err
			}
		}
		root[i] = r
		return r, nil
	}
	for i, s := range spans {
		lt := l.layer(s.name)
		dur := s.end - s.start
		ivs := make([][2]int64, 0, len(children[i]))
		var sum int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].start, spans[c].end})
			sum += spans[c].end - spans[c].start
		}
		covered, union := cover(ivs, s.start, s.end)
		lt.selfUS += dur - covered
		r, err := rootOf(i, 0)
		if err != nil {
			return err
		}
		if d := spans[r].label; d != "" {
			if l.byDesign[d] == nil {
				l.byDesign[d] = map[string]int64{}
			}
			l.byDesign[d][s.name] += dur - covered
		}
		lt.count++
		lt.durUS += dur
		l.overlapUS += sum - union
	}
	l.spans += int64(len(spans))
	return nil
}

// cover returns how much of [lo, hi] the intervals cover, and the length
// of their union unclipped; overlapping intervals count once.
func cover(ivs [][2]int64, lo, hi int64) (clipped, union int64) {
	if len(ivs) == 0 {
		return 0, 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	measure := func(a, b int64) {
		union += b - a
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped += b - a
		}
	}
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			measure(cur[0], cur[1])
			cur = iv
			continue
		}
		if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	measure(cur[0], cur[1])
	return clipped, union
}

// selfMS returns the self time of a span name in milliseconds.
func (l *ledger) selfMS(name string) float64 {
	if lt := l.names[name]; lt != nil {
		return float64(lt.selfUS) / 1e3
	}
	return 0
}

// durMS returns the summed full duration of a span name in milliseconds.
func (l *ledger) durMS(name string) float64 {
	if lt := l.names[name]; lt != nil {
		return float64(lt.durUS) / 1e3
	}
	return 0
}

// count returns how many spans of a name ended.
func (l *ledger) count(name string) int64 {
	if lt := l.names[name]; lt != nil {
		return lt.count
	}
	return 0
}

// unattributedMS is the benchmark spans' self time: time inside the timed
// calls that no program span covers.
func (l *ledger) unattributedMS() float64 {
	var us int64
	for name, lt := range l.names {
		if strings.HasPrefix(name, benchPrefix) {
			us += lt.selfUS
		}
	}
	return float64(us) / 1e3
}

// totalSelfMS sums every span's self time, benchmark spans included.
func (l *ledger) totalSelfMS() float64 {
	var us int64
	for _, lt := range l.names {
		us += lt.selfUS
	}
	return float64(us) / 1e3
}

// accountingTolerance bounds how far the self times may miss the traced busy
// time. Journal times are whole microseconds, so every span boundary can be
// off by up to 1 µs and a child may seem to stick out of its parent by that
// much; the clipped part is lost. 2% of busy time, or 5 ms on short passes,
// covers that rounding on every workload.
func accountingTolerance(busyMS float64) float64 {
	if t := 0.02 * busyMS; t > 5 {
		return t
	}
	return 5
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// account runs the ledger over hand-built spans and returns it.
func account(t *testing.T, spans ...span) *ledger {
	t.Helper()
	l := newLedger()
	if err := l.add(spans); err != nil {
		t.Fatalf("add: %v", err)
	}
	return l
}

func wantSelf(t *testing.T, l *ledger, want map[string]int64) {
	t.Helper()
	for name, us := range want {
		if got := l.names[name].selfUS; got != us {
			t.Errorf("self(%s) = %d µs, want %d", name, got, us)
		}
	}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	l := account(t,
		span{id: 1, name: "bench.call", start: 0, end: 100},
		span{id: 2, parent: 1, name: "mc.check", start: 10, end: 60},
		span{id: 3, parent: 2, name: "sat.solve", start: 20, end: 30},
	)
	wantSelf(t, l, map[string]int64{"bench.call": 50, "mc.check": 40, "sat.solve": 10})
	if l.overlapUS != 0 {
		t.Errorf("overlap = %d, want 0", l.overlapUS)
	}
	if got := l.totalSelfMS(); got != 0.1 {
		t.Errorf("total self = %v ms, want the root's 0.1 ms", got)
	}
}

func TestSelfTimeBackToBackChildren(t *testing.T) {
	l := account(t,
		span{id: 1, name: "bench.call", start: 0, end: 100},
		span{id: 2, parent: 1, name: "mine.iteration", start: 0, end: 40},
		span{id: 3, parent: 1, name: "mine.iteration", start: 40, end: 100},
	)
	wantSelf(t, l, map[string]int64{"bench.call": 0, "mine.iteration": 100})
	if l.count("mine.iteration") != 2 || l.overlapUS != 0 {
		t.Errorf("count %d overlap %d, want 2 and 0", l.count("mine.iteration"), l.overlapUS)
	}
}

func TestSelfTimeOverlappingWorkers(t *testing.T) {
	// Two workers mine outputs of one run at once: the parent is covered
	// once, and the 60 µs both ran is overlap that busy time adds back.
	l := account(t,
		span{id: 1, name: "bench.call", start: 0, end: 100},
		span{id: 2, parent: 1, name: "mine.run", start: 5, end: 100},
		span{id: 3, parent: 2, name: "mine.output", start: 5, end: 80},
		span{id: 4, parent: 2, name: "mine.output", start: 20, end: 100},
	)
	wantSelf(t, l, map[string]int64{"bench.call": 5, "mine.run": 0, "mine.output": 155})
	if l.overlapUS != 60 {
		t.Errorf("overlap = %d µs, want 60", l.overlapUS)
	}
	if busy, self := 0.1+float64(l.overlapUS)/1e3, l.totalSelfMS(); self != busy {
		t.Errorf("total self %v ms != busy %v ms", self, busy)
	}
}

func TestSelfTimeClipsChildOutsideParent(t *testing.T) {
	l := account(t,
		span{id: 1, name: "bench.call", start: 0, end: 100},
		span{id: 2, parent: 1, name: "mc.check", start: 10, end: 50},
		span{id: 3, parent: 2, name: "sat.solve", start: 40, end: 52},
	)
	wantSelf(t, l, map[string]int64{"mc.check": 30, "sat.solve": 12})
}

func TestSelfTimeAdoptsParentlessProgramSpan(t *testing.T) {
	l := account(t,
		span{id: 1, name: "bench.first", start: 0, end: 50},
		span{id: 2, name: "bench.reduce", start: 60, end: 100, label: "b12"},
		span{id: 3, name: "sim.batch", start: 70, end: 90},
	)
	wantSelf(t, l, map[string]int64{"bench.first": 50, "bench.reduce": 20, "sim.batch": 20})
	if got := l.byDesign["b12"]; got["sim.batch"] != 20 || got["bench.reduce"] != 20 || len(l.byDesign) != 1 {
		t.Errorf("per-design self time %v, want sim.batch and bench.reduce 20 µs under b12 only", l.byDesign)
	}
}

func TestSelfTimeSplitsByDesign(t *testing.T) {
	l := account(t,
		span{id: 1, name: "bench.mine_targets", start: 0, end: 100, label: "fetch"},
		span{id: 2, parent: 1, name: "mine.run", start: 0, end: 100},
		span{id: 3, parent: 2, name: "mc.ctx_canon", start: 10, end: 70},
		span{id: 4, name: "bench.mine_targets", start: 100, end: 150, label: "b17"},
		span{id: 5, parent: 4, name: "mc.ctx_canon", start: 100, end: 110},
	)
	if got := l.byDesign["fetch"]["mc.ctx_canon"]; got != 60 {
		t.Errorf("fetch ctx_canon self = %d µs, want 60", got)
	}
	if got := l.byDesign["b17"]["mc.ctx_canon"]; got != 10 {
		t.Errorf("b17 ctx_canon self = %d µs, want 10", got)
	}
	if got := l.byDesign["fetch"]["mine.run"]; got != 40 {
		t.Errorf("fetch mine.run self = %d µs, want 40", got)
	}
}

func TestSelfTimeRejectsUnresolvedParent(t *testing.T) {
	l := newLedger()
	err := l.add([]span{
		{id: 1, name: "bench.call", start: 0, end: 100},
		{id: 2, parent: 7, name: "mc.check", start: 10, end: 20},
	})
	if err == nil || !strings.Contains(err.Error(), "parent 7") {
		t.Fatalf("add = %v, want an unresolved-parent error", err)
	}
}

func TestSelfTimeRejectsOrphanRoot(t *testing.T) {
	l := newLedger()
	err := l.add([]span{
		{id: 1, name: "bench.call", start: 0, end: 100},
		{id: 2, name: "sim.batch", start: 150, end: 160},
	})
	if err == nil {
		t.Fatal("a parentless program span outside every timed call was accepted")
	}
}

func TestMemTraceRoundTrip(t *testing.T) {
	mt := newMemTrace()
	ctx, root := mt.tr.StartSpan(context.Background(), "bench.call")
	_, child := mt.tr.StartSpan(ctx, "mc.check")
	child.End()
	root.End()
	mt.tr.Registry().Counter("mc.checks").Inc()
	j, snap, err := mt.finish()
	if err != nil {
		t.Fatal(err)
	}
	if j.dropped != 0 || j.written != 2 || len(j.spans) != 2 {
		t.Fatalf("journal written=%d dropped=%d spans=%d, want 2, 0, 2", j.written, j.dropped, len(j.spans))
	}
	if snap.Counters["mc.checks"] != 1 {
		t.Errorf("counter snapshot %v", snap.Counters)
	}
	l := account(t, j.spans...)
	if l.count("mc.check") != 1 || l.count("bench.call") != 1 {
		t.Errorf("ledger %v", l.names)
	}
}

func TestParseJournalNeedsTrailer(t *testing.T) {
	if _, err := parseJournal([]byte(`{"ts_us":1,"kind":"span","name":"x","span":1,"dur_us":3}` + "\n")); err == nil {
		t.Fatal("a journal without its close trailer was accepted")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range cfg.PerLayer {
		listed = append(listed, m.Name+" "+m.Unit)
	}
	var printed []string
	for _, m := range layerMetrics {
		printed = append(printed, m.name+" "+m.unit)
	}
	printed = append(printed, "fail_frac ratio", "uncovered_points count", "reduced_monitors count", "telemetry.overhead_pct pct")
	sort.Strings(listed)
	sort.Strings(printed)
	if strings.Join(listed, ",") != strings.Join(printed, ",") {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted with -trace 1:\n%v", listed, printed)
	}
	var e2e []string
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	if got, want := strings.Join(e2e, ","), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end in BENCHMARK.json %s, printed with -trace 0 %s", got, want)
	}
}

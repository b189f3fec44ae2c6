package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	h := r.Histogram("a.hist")
	for _, v := range []int64{0, 1, 3, 100, -5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["a.hist"]
	if hs.Count != 5 || hs.Max != 100 || hs.Sum != 104 {
		t.Fatalf("hist snapshot = %+v", hs)
	}
	if s.Counters["a.count"] != 4 || s.Gauges["a.gauge"] != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a.count"] != 4 {
		t.Fatalf("round-tripped snapshot = %+v", round)
	}
}

// TestNilSafety drives every instrumentation entry point through nil
// receivers — the disabled fast path every subsystem relies on.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	var j *Journal
	reg.Counter("x").Add(1)
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	if got := reg.Snapshot(); got.Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	if reg.Names() != nil {
		t.Fatal("nil registry names not empty")
	}
	j.Emit(Event{})
	if j.Dropped() != 0 || j.Written() != 0 {
		t.Fatal("nil journal counts nonzero")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, sp := tr.StartSpan(context.Background(), "noop")
	if sp != nil || FromContext(ctx) != nil {
		t.Fatal("nil tracer produced a span")
	}
	sp.Annotate(Int("k", 1))
	sp.End()
	if sp.Child("c") != nil {
		t.Fatal("nil span produced a child")
	}
	tr.Event("e")
	tr.EmitSnapshot()
	if tr.Registry() != nil || tr.Journal() != nil {
		t.Fatal("nil tracer exposes components")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if ContextTracer(context.Background()) != nil {
		t.Fatal("empty context has a tracer")
	}
}

func decodeLines(t *testing.T, data []byte) []JSONEvent {
	t.Helper()
	var out []JSONEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var je JSONEvent
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			t.Fatalf("journal line %q does not parse: %v", line, err)
		}
		out = append(out, je)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, 64)
	tr := New(NewRegistry(), j)
	root := tr.Root("run", String("design", "arbiter2"))
	child := root.Child("phase", Int("iter", 1))
	child.End(Bool("ok", true))
	root.End()
	tr.Event("steal", Int("task", 3))
	tr.Registry().Counter("sat.propagations").Add(42)
	tr.EmitSnapshot()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	evs := decodeLines(t, buf.Bytes())
	if len(evs) != 5 {
		t.Fatalf("got %d journal lines, want 5", len(evs))
	}
	byKind := map[string][]JSONEvent{}
	spans := map[uint64]JSONEvent{}
	for _, e := range evs {
		byKind[e.Kind] = append(byKind[e.Kind], e)
		if e.Kind == KindSpan {
			spans[e.Span] = e
		}
	}
	if len(byKind[KindSpan]) != 2 || len(byKind[KindEvent]) != 1 ||
		len(byKind[KindSnapshot]) != 1 || len(byKind[KindClose]) != 1 {
		t.Fatalf("kind distribution wrong: %+v", byKind)
	}
	// Span-tree well-formedness: every non-zero parent resolves to a span,
	// and the parent's interval encloses the child's start.
	for _, e := range byKind[KindSpan] {
		if e.Parent == 0 {
			continue
		}
		p, ok := spans[e.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", e.Span, e.Parent)
		}
		if e.TS < p.TS || e.TS > p.TS+p.DurUS+1 {
			t.Fatalf("child span %d starts outside parent %d's interval", e.Span, e.Parent)
		}
	}
	ch := byKind[KindSpan][0]
	if ch.Name != "phase" || ch.Attrs["iter"] != float64(1) || ch.Attrs["ok"] != float64(1) {
		t.Fatalf("child span attrs wrong: %+v", ch)
	}
	var snap Snapshot
	if err := json.Unmarshal(*byKind[KindSnapshot][0].Data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sat.propagations"] != 42 {
		t.Fatalf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Histograms["phase.us"].Count != 1 {
		t.Fatalf("span duration histogram missing: %+v", snap.Histograms)
	}
	cl := byKind[KindClose][0]
	if cl.Attrs["written"] != float64(4) || cl.Attrs["dropped"] != float64(0) {
		t.Fatalf("trailer accounting wrong: %+v", cl.Attrs)
	}
}

// slowWriter blocks every write until released, forcing the journal buffer to
// back up.
type slowWriter struct {
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestJournalDropAccounting(t *testing.T) {
	w := &slowWriter{release: make(chan struct{})}
	j := NewJournal(w, 2)
	// The writer goroutine is stalled; the buffer holds 2 events (plus up to
	// one pulled into the stalled Write). Emit far more than fit.
	const emits = 100
	for i := 0; i < emits; i++ {
		j.Emit(Event{TS: time.Now(), Kind: KindEvent, Name: "e", Attrs: []Attr{Int("i", int64(i))}})
	}
	if j.Dropped() == 0 {
		t.Fatal("tiny buffer under a stalled writer dropped nothing")
	}
	close(w.release) // let the writer drain
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	data := append([]byte(nil), w.buf.Bytes()...)
	w.mu.Unlock()
	evs := decodeLines(t, data)
	var trailer *JSONEvent
	written, dropped := int64(0), int64(0)
	for i := range evs {
		if evs[i].Kind == KindClose {
			trailer = &evs[i]
		} else {
			written++
		}
	}
	if trailer == nil {
		t.Fatal("no close trailer")
	}
	dropped = int64(trailer.Attrs["dropped"].(float64))
	if int64(trailer.Attrs["written"].(float64)) != written {
		t.Fatalf("trailer written=%v, but %d lines on disk", trailer.Attrs["written"], written)
	}
	if written+dropped != emits {
		t.Fatalf("written %d + dropped %d != emitted %d", written, dropped, emits)
	}
	// Emits after Close must not panic and must be counted.
	before := j.Dropped()
	j.Emit(Event{Kind: KindEvent, Name: "late"})
	if j.Dropped() != before+1 {
		t.Fatal("post-close emit not counted as dropped")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStartSpanParenting(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewRegistry(), NewJournal(&buf, 16))
	ctx := context.Background()
	ctx, root := tr.StartSpan(ctx, "root")
	ctx2, child := tr.StartSpan(ctx, "child")
	if FromContext(ctx2) != child || FromContext(ctx) != root {
		t.Fatal("context span propagation broken")
	}
	if ContextTracer(ctx2) != tr {
		t.Fatal("ContextTracer lost the tracer")
	}
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	evs := decodeLines(t, buf.Bytes())
	var rootID uint64
	for _, e := range evs {
		if e.Kind == KindSpan && e.Name == "root" {
			rootID = e.Span
		}
	}
	for _, e := range evs {
		if e.Kind == KindSpan && e.Name == "child" && e.Parent != rootID {
			t.Fatalf("child parent = %d, want %d", e.Parent, rootID)
		}
	}
}

// TestSpanTimestampsNestOnJournalTimeline pins the timestamp rule: a span's
// ts_us is its start placed on the journal's one timeline, base.Add(start.
// Sub(base)) — the base's wall-clock reading plus a monotonic offset — so a
// child's [ts, ts+dur] nests in its parent's (up to the microsecond
// truncation of both fields) whatever the wall clock does between the two
// starts. Stamping each start with its own wall-clock reading, as spans once
// did, let a wall-clock step move a child outside its parent.
func TestSpanTimestampsNestOnJournalTimeline(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, 64)
	tr := New(NewRegistry(), j)

	// The rule itself: a monotonic start lands at base + monotonic offset;
	// a start without a monotonic reading keeps its wall-clock reading.
	now := time.Now()
	if got, want := j.stamp(now).UnixNano(), j.base.UnixNano()+int64(now.Sub(j.base)); got != want {
		t.Fatalf("stamp = %d, want base + monotonic offset %d", got, want)
	}
	if wall := time.Unix(1e9, 123456789); !j.stamp(wall).Equal(wall) {
		t.Fatalf("stamp moved a wall-clock-only time: %v", j.stamp(wall))
	}

	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 3; i++ {
		cctx, child := tr.StartSpan(ctx, "child")
		time.Sleep(200 * time.Microsecond)
		_, leaf := tr.StartSpan(cctx, "leaf")
		time.Sleep(100 * time.Microsecond)
		leaf.End()
		child.End()
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := map[uint64]JSONEvent{}
	for _, e := range decodeLines(t, buf.Bytes()) {
		if e.Kind == KindSpan {
			spans[e.Span] = e
		}
	}
	if len(spans) != 7 {
		t.Fatalf("%d spans journaled, want 7", len(spans))
	}
	for _, sp := range spans {
		if sp.TS < j.base.UnixMicro() {
			t.Errorf("span %s starts at %d, before the journal base %d", sp.Name, sp.TS, j.base.UnixMicro())
		}
		if sp.Parent == 0 {
			continue
		}
		par := spans[sp.Parent]
		if sp.TS < par.TS || sp.TS+sp.DurUS > par.TS+par.DurUS+1 {
			t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]",
				sp.Name, sp.TS, sp.TS+sp.DurUS, par.Name, par.TS, par.TS+par.DurUS)
		}
	}
}

// TestAppendEventMatchesWire pins the drain goroutine's hand-rolled encoder
// against the reference JSONEvent marshaling: for events covering every field
// and the string-escaping edge cases, both encodings must decode to the same
// record.
func TestAppendEventMatchesWire(t *testing.T) {
	events := []Event{
		{TS: time.UnixMicro(123456), Kind: KindEvent, Name: "sched.steal"},
		{
			TS: time.UnixMicro(-5), Kind: KindSpan, Name: "mc.check",
			Span: 7, Parent: 3, Dur: 1500 * time.Microsecond,
			Attrs: []Attr{
				String("assertion", `a && "b" \ <c>`+"\n\t\r\x01"),
				Int("depth", -42),
				Bool("degraded", true),
				String("unicode", "héllo — 世界"),
				String("empty", ""),
			},
		},
		{TS: time.UnixMicro(99), Kind: KindSnapshot, Name: "metrics",
			Data: map[string]int{"a": 1}},
		{TS: time.UnixMicro(100), Kind: KindEvent, Name: "record",
			Data: &appendingData{N: -7, S: "plain text"}},
	}
	for i, e := range events {
		got, err := appendEvent(nil, &e)
		if err != nil {
			t.Fatalf("event %d: appendEvent: %v", i, err)
		}
		ref, err := e.wire()
		if err != nil {
			t.Fatalf("event %d: wire: %v", i, err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var gj, wj JSONEvent
		if err := json.Unmarshal(got, &gj); err != nil {
			t.Fatalf("event %d: hand encoding unparseable: %v\n%s", i, err, got)
		}
		if err := json.Unmarshal(want, &wj); err != nil {
			t.Fatal(err)
		}
		gd, wd := gj.Data, wj.Data
		gj.Data, wj.Data = nil, nil
		if !reflect.DeepEqual(gj, wj) {
			t.Errorf("event %d: decoded records differ:\nhand: %+v\nref:  %+v", i, gj, wj)
		}
		if (gd == nil) != (wd == nil) {
			t.Errorf("event %d: data presence differs", i)
		} else if gd != nil && string(*gd) != string(*wd) {
			t.Errorf("event %d: data differs: %s vs %s", i, *gd, *wd)
		}
		if a, ok := e.Data.(*appendingData); ok && a.calls != 1 {
			t.Errorf("event %d: AppendJSON called %d times, want 1 (json.Marshal must not be used)", i, a.calls)
		}
	}
}

// appendingData is a payload that renders itself: appendEvent must use its
// AppendJSON, whose bytes are json.Marshal's for an S that strconv.Quote
// and json.Marshal write alike (printable ASCII without <, > or &).
type appendingData struct {
	N     int    `json:"n"`
	S     string `json:"s"`
	calls int
}

func (d *appendingData) AppendJSON(b []byte) ([]byte, error) {
	d.calls++
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(d.N), 10)
	b = append(b, `,"s":`...)
	b = strconv.AppendQuote(b, d.S)
	return append(b, '}'), nil
}

// TestStartSummaryOnly: -metrics-summary without -telemetry starts a
// metrics-only tracer that creates no file and prints the snapshot at
// finish; with neither flag there is no tracer at all.
func TestStartSummaryOnly(t *testing.T) {
	listing := func() []string {
		entries, err := os.ReadDir(".")
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return names
	}
	before := listing()
	tr, finish, err := Start("cmd", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || tr.Journal() != nil {
		t.Fatalf("summary-only tracer %+v: want a registry and no journal", tr)
	}
	tr.Registry().Counter("start.test").Add(7)
	var stderr bytes.Buffer
	finish(&stderr)
	if !strings.Contains(stderr.String(), `"start.test": 7`) {
		t.Errorf("summary lacks the counter:\n%s", stderr.String())
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("summary-only run changed the directory: %v -> %v", before, after)
	}

	tr, finish, err = Start("cmd", "", false)
	if err != nil || tr != nil {
		t.Fatalf("no flags: tracer %v, err %v; want neither", tr, err)
	}
	stderr.Reset()
	finish(&stderr)
	if stderr.Len() != 0 {
		t.Errorf("no flags: finish wrote %q", stderr.String())
	}
}

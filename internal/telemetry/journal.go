package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are either
// strings or int64s — the two shapes every instrumented site needs — so the
// hot path never boxes through interfaces or builds maps.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	isInt bool
}

// String builds a string-valued attribute.
func String(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer-valued attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, isInt: true} }

// Bool builds a boolean attribute (rendered as 0/1).
func Bool(key string, val bool) Attr {
	var v int64
	if val {
		v = 1
	}
	return Attr{Key: key, Int: v, isInt: true}
}

// Event kinds written to the journal.
const (
	// KindSpan is a completed span: Span/Parent identify it, DurUS its length.
	KindSpan = "span"
	// KindEvent is a point event (a steal, a dedup, a fault).
	KindEvent = "event"
	// KindSnapshot carries a full metrics Snapshot in Data.
	KindSnapshot = "snapshot"
	// KindClose is the journal trailer: written/dropped accounting.
	KindClose = "close"
)

// Event is one journal record. The instrumented path builds Events and hands
// them to Journal.Emit; the writer goroutine marshals them to JSONL.
type Event struct {
	TS     time.Time
	Kind   string
	Name   string
	Span   uint64
	Parent uint64
	Dur    time.Duration
	Attrs  []Attr
	// Data is the payload: a KindSnapshot's metrics, a log's record. It is
	// written by its own AppendJSON method when it has one (jsonAppender),
	// by json.Marshal otherwise, off the hot path either way.
	Data any
}

// jsonAppender is a Data payload that renders itself without reflection.
// AppendJSON must append exactly what json.Marshal would write for the
// value, or json.Marshal's error, so the wire form does not depend on which
// path wrote it.
type jsonAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// JSONEvent is the wire form of an Event — one JSONL line. Exported so tests
// and downstream consumers (cmd/telcheck) can round-trip the journal.
type JSONEvent struct {
	TS     int64            `json:"ts_us"`
	Kind   string           `json:"kind"`
	Name   string           `json:"name,omitempty"`
	Span   uint64           `json:"span,omitempty"`
	Parent uint64           `json:"parent,omitempty"`
	DurUS  int64            `json:"dur_us,omitempty"`
	Attrs  map[string]any   `json:"attrs,omitempty"`
	Data   *json.RawMessage `json:"data,omitempty"`
}

// wire is the reference encoding: the drain goroutine writes the same shape
// via appendEvent (reflection-free), and a test pins the two against each
// other.
func (e *Event) wire() (JSONEvent, error) {
	je := JSONEvent{
		TS:     e.TS.UnixMicro(),
		Kind:   e.Kind,
		Name:   e.Name,
		Span:   e.Span,
		Parent: e.Parent,
		DurUS:  e.Dur.Microseconds(),
	}
	if len(e.Attrs) > 0 {
		je.Attrs = make(map[string]any, len(e.Attrs))
		for _, a := range e.Attrs {
			if a.isInt {
				je.Attrs[a.Key] = a.Int
			} else {
				je.Attrs[a.Key] = a.Str
			}
		}
	}
	if e.Data != nil {
		raw, err := json.Marshal(e.Data)
		if err != nil {
			return je, err
		}
		rm := json.RawMessage(raw)
		je.Data = &rm
	}
	return je, nil
}

// Journal writes telemetry events as JSON Lines through a bounded buffer.
// Emit never blocks the instrumented path: events queue on a channel and a
// single writer goroutine drains, marshals, and writes them. When the buffer
// is full the event is dropped and counted — under overload the journal
// degrades by losing events, never by stalling the refinement loop. Close
// flushes the queue and appends a trailer line recording written/dropped
// totals, so a consumer can always tell whether the record is complete.
//
// Every timestamp a journal writes lies on one timeline: the wall-clock
// reading of the journal's base (taken once, at NewJournal) plus the
// monotonic time elapsed since it. A span's ts_us is its start on that
// timeline and its dur_us is monotonic too, so a wall-clock step between a
// parent's start and a child's cannot make the child escape its parent.
type Journal struct {
	base    time.Time
	ch      chan Event
	done    chan struct{}
	w       *bufio.Writer
	closer  io.Closer // closed after the trailer when the sink is a file
	stopped atomic.Bool
	written atomic.Int64
	dropped atomic.Int64
	errOnce sync.Once
	err     error

	closeOnce sync.Once
	closeErr  error
}

// kindStop is the internal shutdown sentinel: drain exits when it arrives,
// after everything queued before it has been written.
const kindStop = "\x00stop"

// DefaultJournalBuffer is the event buffer depth used by the CLI flags.
const DefaultJournalBuffer = 8192

// Start opens the telemetry behind a command's -telemetry and
// -metrics-summary flags: a tracer journaling to the file at path when path
// is set, a metrics-only tracer when only summary is, and a nil tracer when
// neither is. The returned finish ends the run: it writes the final metrics
// snapshot and the journal's close trailer, reports a failed close to
// stderr under the command's name, and with summary prints the snapshot to
// stderr as JSON, so stdout is the same with telemetry on or off.
func Start(name, path string, summary bool) (tr *Tracer, finish func(stderr io.Writer), err error) {
	if path == "" && !summary {
		return nil, func(io.Writer) {}, nil
	}
	var j *Journal
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		j = NewJournal(f, DefaultJournalBuffer)
	}
	tr = New(NewRegistry(), j)
	return tr, func(stderr io.Writer) {
		tr.EmitSnapshot()
		if err := tr.Close(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
		}
		if summary {
			_ = tr.reg.Snapshot().WriteJSON(stderr)
		}
	}, nil
}

// NewJournal starts a journal writing to w with the given buffer depth
// (values < 1 get a minimal buffer of 1). If w is also an io.Closer it is
// closed by Journal.Close after the trailer.
func NewJournal(w io.Writer, buffer int) *Journal {
	if buffer < 1 {
		buffer = 1
	}
	j := &Journal{
		base: time.Now(),
		ch:   make(chan Event, buffer),
		done: make(chan struct{}),
		w:    bufio.NewWriter(w),
	}
	if c, ok := w.(io.Closer); ok {
		j.closer = c
	}
	go j.drain()
	return j
}

func (j *Journal) drain() {
	// One reusable scratch buffer: the drain goroutine shares the CPU with
	// the mining loop on small hosts, so events are formatted by direct
	// append (appendEvent) rather than reflection-driven encoding/json —
	// same wire shape as JSONEvent, a fraction of the cost.
	defer close(j.done)
	buf := make([]byte, 0, 512)
	for e := range j.ch {
		if e.Kind == kindStop {
			return
		}
		var err error
		buf, err = appendEvent(buf[:0], &e)
		if err == nil {
			_, err = j.w.Write(buf)
		}
		if err != nil {
			j.errOnce.Do(func() { j.err = err })
			continue
		}
		j.written.Add(1)
	}
}

// EncodeEvent formats e as one JSONL line appended to b, producing exactly
// the JSONEvent wire shape (field set, omitempty behaviour) without
// reflection; a Data payload with an AppendJSON method renders itself, any
// other is marshaled by encoding/json. Exported so other JSONL logs — the
// serve package's durable job journal, the corpus store — reuse the same
// encoder and wire format as the telemetry journal. Any JSON decoder reads
// the lines back: json.Unmarshal into JSONEvent, or the corpus store's own
// single-pass decoder.
func EncodeEvent(b []byte, e *Event) ([]byte, error) {
	return appendEvent(b, e)
}

// appendEvent formats e as one JSONL line into b, producing exactly the
// JSONEvent wire shape (field set, omitempty behaviour) without reflection.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendInt(b, e.TS.UnixMicro(), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, e.Kind)
	if e.Name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, e.Name)
	}
	if e.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendUint(b, e.Span, 10)
	}
	if e.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, e.Parent, 10)
	}
	if us := e.Dur.Microseconds(); us != 0 {
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendInt(b, us, 10)
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			if a.isInt {
				b = strconv.AppendInt(b, a.Int, 10)
			} else {
				b = appendJSONString(b, a.Str)
			}
		}
		b = append(b, '}')
	}
	if a, ok := e.Data.(jsonAppender); ok {
		var err error
		if b, err = a.AppendJSON(append(b, `,"data":`...)); err != nil {
			return b, err
		}
	} else if e.Data != nil {
		raw, err := json.Marshal(e.Data)
		if err != nil {
			return b, err
		}
		b = append(b, `,"data":`...)
		b = append(b, raw...)
	}
	return append(b, '}', '\n'), nil
}

// appendJSONString appends s as a JSON string literal. Bytes >= 0x20 other
// than quote and backslash pass through untouched (UTF-8 sequences are valid
// JSON as-is); control characters get the \u00XX form encoding/json uses.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// stamp places t on the journal's timeline: base.Add(t.Sub(base)) is the
// base's wall-clock reading plus the monotonic time from base to t (a t
// without a monotonic reading keeps its own wall-clock reading).
func (j *Journal) stamp(t time.Time) time.Time { return j.base.Add(t.Sub(j.base)) }

// Emit queues one event, its TS moved onto the journal's timeline; a full
// buffer drops it and bumps the drop counter.
// Nil-safe: a nil journal swallows events for free. Emits after Close are
// dropped (counted), never a crash — a straggler goroutine finishing its last
// span after shutdown must not take the process down.
func (j *Journal) Emit(e Event) {
	if j == nil || j.stopped.Load() {
		if j != nil {
			j.dropped.Add(1)
		}
		return
	}
	e.TS = j.stamp(e.TS)
	select {
	case j.ch <- e:
	default:
		j.dropped.Add(1)
	}
}

// Written returns the number of lines successfully written so far.
func (j *Journal) Written() int64 {
	if j == nil {
		return 0
	}
	return j.written.Load()
}

// Dropped returns the number of events lost to buffer overflow so far.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Close drains the queue, writes the accounting trailer, flushes, and closes
// the underlying sink when it is a Closer. Safe to call more than once; emits
// arriving after Close are dropped (counted) rather than panicking on the
// closed channel — callers should stop instrumented work first, but a late
// event from a straggler goroutine must not crash the process.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.closeOnce.Do(func() {
		j.stopped.Store(true)
		j.ch <- Event{Kind: kindStop}
		<-j.done
		trailer := JSONEvent{
			TS:   j.stamp(time.Now()).UnixMicro(),
			Kind: KindClose,
			Attrs: map[string]any{
				"written": j.written.Load(),
				"dropped": j.dropped.Load(),
			},
		}
		enc := json.NewEncoder(j.w)
		if err := enc.Encode(trailer); err != nil && j.err == nil {
			j.err = err
		}
		if err := j.w.Flush(); err != nil && j.err == nil {
			j.err = err
		}
		if j.closer != nil {
			if err := j.closer.Close(); err != nil && j.err == nil {
				j.err = err
			}
		}
		if j.err != nil {
			j.closeErr = fmt.Errorf("telemetry journal: %w", j.err)
		}
	})
	return j.closeErr
}

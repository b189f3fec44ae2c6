// JSONL persistence for the corpus, on the telemetry journal's wire format:
// every line is a telemetry.JSONEvent, encoded by the same reflection-free
// telemetry.EncodeEvent the serve WAL uses (the entry payload by
// entryJSON.AppendJSON) and decoded in one pass by the reflection-free
// lineDecoder (codec.go). A file is a header line, one corpus.entry event
// per entry (the assertion serialized in Data), and a trailer carrying the
// entry count. Reading and appending follow the internal/jsonl contract, so a
// journal a killed daemon left behind (torn final line, no trailer) loads
// with at most the batch being written lost.
package corpus

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/jsonl"
	"goldmine/internal/telemetry"
)

// Event names used in the corpus journal.
const (
	eventHeader  = "corpus.header"
	eventEntry   = "corpus.entry"
	eventTrailer = "corpus.trailer"
)

// storeVersion guards the wire shape; bump on incompatible change.
const storeVersion = 1

// propJSON is the wire form of one assertion proposition.
type propJSON struct {
	Signal string `json:"s"`
	Bit    int    `json:"b"`
	Offset int    `json:"o"`
	Value  uint64 `json:"v"`
	Width  int    `json:"w"`
}

// entryJSON is the wire form of one Entry (the Data payload of a
// corpus.entry event). The canonical key is recomputed on load rather than
// trusted from the file.
type entryJSON struct {
	NS         string     `json:"ns"`
	Design     string     `json:"design"`
	Output     string     `json:"output"`
	Status     string     `json:"status"`
	Method     string     `json:"method,omitempty"`
	Seen       int        `json:"seen"`
	FirstRun   string     `json:"first_run,omitempty"`
	LastRun    string     `json:"last_run,omitempty"`
	Window     int        `json:"window"`
	Confidence float64    `json:"confidence"`
	Support    int        `json:"support"`
	Ant        []propJSON `json:"ant,omitempty"`
	Cons       propJSON   `json:"cons"`
}

func propWire(p assertion.Prop) propJSON {
	return propJSON{Signal: p.Signal, Bit: p.Bit, Offset: p.Offset, Value: p.Value, Width: p.Width}
}

func propFromWire(p propJSON) assertion.Prop {
	return assertion.Prop{Signal: p.Signal, Bit: p.Bit, Offset: p.Offset, Value: p.Value, Width: p.Width}
}

func entryWire(e *Entry) entryJSON {
	je := entryJSON{
		NS: e.NS, Design: e.Design, Output: e.A.Output,
		Status: e.Status, Method: e.Method,
		Seen: e.Seen, FirstRun: e.FirstRun, LastRun: e.LastRun,
		Window:     e.A.Window,
		Confidence: e.A.Confidence,
		Support:    e.A.Support,
		Cons:       propWire(e.A.Consequent),
	}
	for _, p := range e.A.Antecedent {
		je.Ant = append(je.Ant, propWire(p))
	}
	return je
}

func entryFromWire(je *entryJSON) *Entry {
	a := &assertion.Assertion{
		Output:     je.Output,
		Consequent: propFromWire(je.Cons),
		Window:     je.Window,
		Confidence: je.Confidence,
		Support:    je.Support,
	}
	if len(je.Ant) > 0 {
		a.Antecedent = make([]assertion.Prop, len(je.Ant))
		for i, p := range je.Ant {
			a.Antecedent[i] = propFromWire(p)
		}
	}
	a.Normalize()
	seen := je.Seen
	if seen < 1 {
		seen = 1
	}
	return &Entry{
		NS: je.NS, Design: je.Design, Key: a.CanonicalKey(), A: a,
		Status: je.Status, Method: je.Method,
		Seen: seen, FirstRun: je.FirstRun, LastRun: je.LastRun,
	}
}

// encodeEntryEvent renders one entry as a corpus.entry journal line.
func encodeEntryEvent(buf []byte, e *Entry) ([]byte, error) {
	je := entryWire(e)
	return telemetry.EncodeEvent(buf, &telemetry.Event{
		TS:   time.Now(),
		Kind: telemetry.KindEvent,
		Name: eventEntry,
		Data: &je,
	})
}

// encodeHeader renders the journal's version header line.
func encodeHeader(buf []byte) ([]byte, error) {
	return telemetry.EncodeEvent(buf, &telemetry.Event{
		TS: time.Now(), Kind: telemetry.KindEvent, Name: eventHeader,
		Attrs: []telemetry.Attr{telemetry.Int("version", storeVersion)},
	})
}

// Save writes the whole corpus to path atomically (temp file + rename), in
// the deterministic Entries order, with header and trailer lines. Re-saving
// an unchanged corpus rewrites identical entry payloads.
func Save(path string, c *Corpus) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	w := bufio.NewWriter(f)
	entries := c.Entries()
	buf := make([]byte, 0, 512)
	buf, err = encodeHeader(buf)
	if err == nil {
		_, err = w.Write(buf)
	}
	for _, e := range entries {
		if err != nil {
			break
		}
		buf, err = encodeEntryEvent(buf[:0], e)
		if err == nil {
			_, err = w.Write(buf)
		}
	}
	if err == nil {
		buf, err = telemetry.EncodeEvent(buf[:0], &telemetry.Event{
			TS: time.Now(), Kind: telemetry.KindEvent, Name: eventTrailer,
			Attrs: []telemetry.Attr{telemetry.Int("entries", int64(len(entries)))},
		})
		if err == nil {
			_, err = w.Write(buf)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		// The rename below only atomically replaces what has reached the
		// disk: without the fsync a crash shortly after Save can leave the
		// renamed file empty or truncated.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		// Make the rename itself durable. Best-effort open (some platforms
		// refuse directory handles), but a failing sync is reported.
		err = dir.Sync()
		if cerr := dir.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("corpus: save: %w", err)
		}
	}
	return nil
}

// Load reads a corpus journal under the jsonl contract. A missing file is an
// empty corpus (first run of a fresh daemon or CLI), a torn tail is
// discarded, and a bad line followed by anything is corruption.
func Load(path string) (*Corpus, error) {
	c := New()
	if _, err := jsonl.Replay(path, c.loader()); err != nil {
		return nil, fmt.Errorf("corpus: load: %w", err)
	}
	return c, nil
}

// loader returns the replay callback that ingests journal lines into c, with
// one decoder for the whole load. Header, trailer and foreign events are
// skipped; a line that fails to parse, or whose assertion has an offset
// outside 0..assertion.MaxOffset, is rejected.
func (c *Corpus) loader() func(line []byte) error {
	d := newLineDecoder()
	return func(line []byte) error {
		e, err := d.decode(line)
		if e != nil {
			c.add(e)
		}
		return err
	}
}

// Store is the daemon's append-mode corpus journal. Persistence is
// best-effort — the in-memory corpus stays authoritative for the process
// lifetime — but failures are not silent: Err and Dropped report them, and
// goldmined surfaces both on /statsz.
type Store = jsonl.Log

// OpenStore loads path (missing = empty) into a fresh corpus, cutting off any
// torn tail, and wires the corpus's sink so every batch of newly ingested
// entries is appended and synced as one write as it lands. A SIGKILL loses
// at most the batch being written. Close the store when the owning server
// shuts down.
func OpenStore(path string) (*Corpus, *Store, error) {
	c := New()
	load := c.loader()
	lines := 0
	st, err := jsonl.Open(path, func(line []byte) error {
		if err := load(line); err != nil {
			return err
		}
		lines++
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: open: %w", err)
	}
	if lines == 0 {
		// Fresh (or fully torn) journal: start with the header line.
		hdr, err := encodeHeader(nil)
		if err == nil {
			err = st.Append(hdr, 1)
		}
		if err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("corpus: open: %w", err)
		}
	}
	// The corpus invokes the sink outside its own lock, so the fsync here
	// stalls only other appends, never corpus readers. Failures land in the
	// store's Err and Dropped.
	c.SetSink(func(entries []*Entry) {
		buf := make([]byte, 0, 512*len(entries))
		for _, e := range entries {
			var err error
			if buf, err = encodeEntryEvent(buf, e); err != nil {
				st.Fail(len(entries), err)
				return
			}
		}
		if st.Append(buf, len(entries)) == nil {
			_ = st.Sync()
		}
	})
	return c, st, nil
}

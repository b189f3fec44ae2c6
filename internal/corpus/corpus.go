// Package corpus is the corpus-first layer above internal/assertion: the
// canonical way downstream code consumes mined assertions. Where the engine
// returns the assertions of one run as ad-hoc []*Assertion slices, a Corpus
// accumulates them across runs — CLI invocations, daemon jobs, benchmark
// sweeps — deduplicating on the order-independent CanonicalKey inside a
// per-design fingerprint namespace, so structurally different designs can
// never alias even when their signal names collide.
//
// On top of the accumulated corpus the package provides semantic clustering
// by cone-of-influence signature (cluster.go), a measured ranking oracle
// (mutant discrimination via the 64-lane batched fault regression plus
// temporal coverage contribution via monitor activation recording), and
// greedy marginal-gain suite reduction (reduce.go). A JSONL store reusing
// the telemetry wire encoder persists the corpus across daemon restarts
// (store.go).
package corpus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
)

// Entry is one unique proven assertion in the corpus, with its cross-run
// provenance. Identity is (NS, Key); everything else is metadata.
type Entry struct {
	// NS is the design fingerprint namespace (sched.DesignFingerprint):
	// canonical keys only collide within one structural design identity.
	NS string
	// Design is the design name the assertion was mined on (display only —
	// NS is the authoritative namespace).
	Design string
	// Key is the assertion's order-independent CanonicalKey.
	Key string
	// A is the assertion itself (first form seen; later duplicates only
	// bump Seen).
	A *assertion.Assertion
	// Status is the proving verdict ("proved" or "bounded").
	Status string
	// Method names the checker that proved it (k-induction, BMC, ...).
	Method string
	// Seen counts how many ingested results contained this assertion.
	Seen int
	// FirstRun and LastRun label the first and latest contributing runs.
	FirstRun, LastRun string
}

// entryID is the corpus-wide identity of an entry.
type entryID struct{ ns, key string }

func (e *Entry) id() entryID { return entryID{e.NS, e.Key} }

// Mined is one proven assertion handed to Ingest: the assertion plus the
// verdict metadata worth keeping (everything else in core.AssertionRecord is
// per-run diagnostics).
type Mined struct {
	A      *assertion.Assertion
	Status string
	Method string
}

// IngestStats summarizes one Ingest call.
type IngestStats struct {
	// Records is how many proven records the call offered.
	Records int
	// New is how many became new corpus entries.
	New int
	// Dups is how many deduplicated onto existing entries.
	Dups int
}

// DesignStats is the per-namespace slice of Stats.
type DesignStats struct {
	Design  string `json:"design"`
	NS      string `json:"ns"`
	Entries int    `json:"entries"`
	// Seen sums Entry.Seen over the namespace: total proven records ever
	// ingested for the design, duplicates included.
	Seen int `json:"seen"`
}

// Stats is the corpus dashboard (the goldmined /v1/corpus payload).
type Stats struct {
	Entries int           `json:"entries"`
	DupHits int           `json:"dup_hits"`
	Designs []DesignStats `json:"designs,omitempty"`
}

// Corpus accumulates unique proven assertions across runs. Safe for
// concurrent use; all read methods return deterministic sorted snapshots.
type Corpus struct {
	mu      sync.Mutex
	entries map[entryID]*Entry
	dupHits int
	// sink, when set, receives a snapshot of each ingest's newly created
	// entries — the append-mode store uses it to persist entries as they
	// land. It runs after Ingest releases the corpus lock, so a slow sink
	// (one fsync per batch in the store) never stalls corpus readers.
	sink func([]*Entry)
	// gen counts the entries ever added; clusters memoises designClusters
	// per namespace and is dropped whenever gen moves.
	gen      int
	clusters map[string]clusterMemo
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{entries: map[entryID]*Entry{}}
}

// SetSink registers a callback invoked, outside the corpus lock, with a
// snapshot of every ingest batch's entries that were new to the corpus.
// At most one sink; nil unregisters.
func (c *Corpus) SetSink(fn func([]*Entry)) {
	c.mu.Lock()
	c.sink = fn
	c.mu.Unlock()
}

// Namespace returns the fingerprint namespace Ingest files a design under.
func Namespace(d *rtl.Design) string { return sched.DesignFingerprint(d) }

// Ingest folds a batch of proven assertions mined on design d into the
// corpus under runID's provenance label. Duplicates (same namespace, same
// canonical key) bump the existing entry's Seen count instead of adding.
func (c *Corpus) Ingest(runID string, d *rtl.Design, recs []Mined) IngestStats {
	ns := Namespace(d)
	st := IngestStats{Records: len(recs)}
	c.mu.Lock()
	var fresh []*Entry
	for _, m := range recs {
		id := entryID{ns, m.A.CanonicalKey()}
		if prev, ok := c.entries[id]; ok {
			prev.Seen++
			prev.LastRun = runID
			c.dupHits++
			st.Dups++
			continue
		}
		e := &Entry{
			NS:       ns,
			Design:   d.Name,
			Key:      id.key,
			A:        m.A,
			Status:   m.Status,
			Method:   m.Method,
			Seen:     1,
			FirstRun: runID,
			LastRun:  runID,
		}
		c.entries[id] = e
		c.grew()
		st.New++
		if c.sink != nil {
			// Snapshot under the lock: a concurrent duplicate ingest may
			// bump the live entry's Seen/LastRun while the sink encodes.
			cp := *e
			fresh = append(fresh, &cp)
		}
	}
	sink := c.sink
	c.mu.Unlock()
	if sink != nil && len(fresh) > 0 {
		sink(fresh)
	}
	return st
}

// IngestResult ingests every proved record (including bounded proofs) of a
// mining result. This is the one-call path for the CLI and the daemon: the
// live *core.Result still has the assertion objects that the condensed
// artifact rendering drops.
func (c *Corpus) IngestResult(runID string, res *core.Result) IngestStats {
	return c.IngestOutputs(runID, res.Design, res.Outputs)
}

// IngestOutputs ingests the proved records of per-output results mined on d
// (the shape the experiments harness holds).
func (c *Corpus) IngestOutputs(runID string, d *rtl.Design, outs []*core.OutputResult) IngestStats {
	var recs []Mined
	for _, o := range outs {
		for _, rec := range o.Proved {
			recs = append(recs, Mined{
				A:      rec.Assertion,
				Status: rec.Status.String(),
				Method: rec.Method,
			})
		}
	}
	return c.Ingest(runID, d, recs)
}

// add restores one entry verbatim (the store's load path): identity, Seen
// and run labels come from the record, and an already-present entry merges
// by keeping the larger Seen. Returns whether the entry was new.
func (c *Corpus) add(e *Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[e.id()]; ok {
		if e.Seen > prev.Seen {
			prev.Seen = e.Seen
			prev.LastRun = e.LastRun
		}
		return false
	}
	c.entries[e.id()] = e
	c.grew()
	return true
}

// grew records a new entry: it invalidates the clustering memo. Call with
// c.mu held.
func (c *Corpus) grew() {
	c.gen++
	c.clusters = nil
}

// Len returns the number of unique entries.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Entries returns every entry sorted by (design, namespace, key) — the
// iteration order every deterministic consumer uses.
func (c *Corpus) Entries() []*Entry {
	c.mu.Lock()
	out := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Design != out[j].Design {
			return out[i].Design < out[j].Design
		}
		if out[i].NS != out[j].NS {
			return out[i].NS < out[j].NS
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ForDesign returns the entries in d's fingerprint namespace, sorted by key.
func (c *Corpus) ForDesign(d *rtl.Design) []*Entry {
	ns := Namespace(d)
	c.mu.Lock()
	var out []*Entry
	for _, e := range c.entries {
		if e.NS == ns {
			out = append(out, e)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Suite returns the assertions of d's namespace in deterministic key order —
// the []*Assertion view downstream monitor/fault code consumes.
func (c *Corpus) Suite(d *rtl.Design) []*assertion.Assertion {
	entries := c.ForDesign(d)
	out := make([]*assertion.Assertion, len(entries))
	for i, e := range entries {
		out[i] = e.A
	}
	return out
}

// Stats snapshots the corpus dashboard, namespaces sorted by design name.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	per := map[string]*DesignStats{}
	st := Stats{Entries: len(c.entries), DupHits: c.dupHits}
	for _, e := range c.entries {
		ds := per[e.NS]
		if ds == nil {
			ds = &DesignStats{Design: e.Design, NS: e.NS}
			per[e.NS] = ds
		}
		ds.Entries++
		ds.Seen += e.Seen
	}
	c.mu.Unlock()
	for _, ds := range per {
		st.Designs = append(st.Designs, *ds)
	}
	sort.Slice(st.Designs, func(i, j int) bool {
		if st.Designs[i].Design != st.Designs[j].Design {
			return st.Designs[i].Design < st.Designs[j].Design
		}
		return st.Designs[i].NS < st.Designs[j].NS
	})
	return st
}

// String renders a short human summary ("corpus: 21 entries / 2 designs").
func (c *Corpus) String() string {
	st := c.Stats()
	b := &strings.Builder{}
	fmt.Fprintf(b, "corpus: %d entries / %d designs", st.Entries, len(st.Designs))
	return b.String()
}

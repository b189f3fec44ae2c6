package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/rtl"
)

const arbiterSrc = `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 0; gnt1 <= 0; end
    else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule`

// arbiterSwappedSrc is structurally different but has identical signal names:
// the namespace fingerprints must keep its entries apart from arbiterSrc's.
const arbiterSwappedSrc = `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 0; gnt1 <= 0; end
    else begin
      gnt0 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
      gnt1 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
    end
endmodule`

func mustDesign(t *testing.T, src string) *rtl.Design {
	t.Helper()
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Assertions that hold on arbiterSrc (gnt0' is 0 whenever rst or !req0).
func rstImpliesNoGnt0() *assertion.Assertion {
	return &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{assertion.P("rst", 0, 1, 1)},
		Consequent: assertion.P("gnt0", 1, 0, 1),
		Window:     1, Confidence: 1, Support: 8,
	}
}

func rstReq0ImpliesNoGnt0() *assertion.Assertion {
	return &assertion.Assertion{
		Output: "gnt0",
		Antecedent: []assertion.Prop{
			assertion.P("rst", 0, 1, 1),
			assertion.P("req0", 0, 1, 1),
		},
		Consequent: assertion.P("gnt0", 1, 0, 1),
		Window:     1, Confidence: 1, Support: 4,
	}
}

func noReq0ImpliesNoGnt0() *assertion.Assertion {
	return &assertion.Assertion{
		Output:     "gnt0",
		Antecedent: []assertion.Prop{assertion.P("req0", 0, 0, 1)},
		Consequent: assertion.P("gnt0", 1, 0, 1),
		Window:     1, Confidence: 1, Support: 8,
	}
}

func TestIngestCrossRunDedup(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	st1 := c.Ingest("run1", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved", Method: "k-induction"}})
	if st1.New != 1 || st1.Dups != 0 {
		t.Fatalf("first ingest: %+v", st1)
	}
	// Same assertion again, antecedent commuted via a two-prop variant.
	commuted := rstReq0ImpliesNoGnt0()
	commuted.Antecedent[0], commuted.Antecedent[1] = commuted.Antecedent[1], commuted.Antecedent[0]
	st2 := c.Ingest("run2", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved"},
		{A: rstReq0ImpliesNoGnt0(), Status: "proved"},
	})
	st3 := c.Ingest("run3", d, []Mined{{A: commuted, Status: "proved"}})
	if st2.New != 1 || st2.Dups != 1 {
		t.Errorf("second ingest: %+v", st2)
	}
	if st3.New != 0 || st3.Dups != 1 {
		t.Errorf("commuted ingest was not a duplicate: %+v", st3)
	}
	if c.Len() != 2 {
		t.Errorf("corpus has %d entries, want 2", c.Len())
	}
	for _, e := range c.ForDesign(d) {
		switch len(e.A.Antecedent) {
		case 1: // ingested by run1 and run2
			if e.Seen != 2 || e.FirstRun != "run1" || e.LastRun != "run2" {
				t.Errorf("general entry provenance: seen=%d first=%s last=%s",
					e.Seen, e.FirstRun, e.LastRun)
			}
		case 2: // ingested by run2, deduped against run3's commuted form
			if e.Seen != 2 || e.FirstRun != "run2" || e.LastRun != "run3" {
				t.Errorf("specific entry provenance: seen=%d first=%s last=%s",
					e.Seen, e.FirstRun, e.LastRun)
			}
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.DupHits != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestNamespacesKeepStructurallyDifferentDesignsApart(t *testing.T) {
	d1 := mustDesign(t, arbiterSrc)
	d2 := mustDesign(t, arbiterSwappedSrc)
	if Namespace(d1) == Namespace(d2) {
		t.Fatal("structurally different designs share a namespace")
	}
	c := New()
	c.Ingest("r", d1, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	st := c.Ingest("r", d2, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	if st.New != 1 || c.Len() != 2 {
		t.Errorf("same-named assertion aliased across designs: %+v len=%d", st, c.Len())
	}
	if got := len(c.ForDesign(d1)); got != 1 {
		t.Errorf("ForDesign(d1) = %d entries, want 1", got)
	}
	// Re-elaborating the same source lands in the same namespace.
	if Namespace(d1) != Namespace(mustDesign(t, arbiterSrc)) {
		t.Error("re-elaborated design changed namespace")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("run1", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved", Method: "k-induction"},
		{A: noReq0ImpliesNoGnt0(), Status: "bounded", Method: "bmc"},
	})
	c.Ingest("run2", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})

	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, have := c.Entries(), got.Entries()
	if len(want) != len(have) {
		t.Fatalf("loaded %d entries, want %d", len(have), len(want))
	}
	for i := range want {
		w, h := want[i], have[i]
		if w.NS != h.NS || w.Key != h.Key || w.Status != h.Status ||
			w.Method != h.Method || w.Seen != h.Seen ||
			w.FirstRun != h.FirstRun || w.LastRun != h.LastRun {
			t.Errorf("entry %d metadata diverges:\n%+v\n%+v", i, w, h)
		}
		if w.A.String() != h.A.String() {
			t.Errorf("entry %d assertion diverges: %s vs %s", i, w.A, h.A)
		}
		if w.A.Window != h.A.Window || w.A.Confidence != h.A.Confidence ||
			w.A.Support != h.A.Support {
			t.Errorf("entry %d statistics diverge", i)
		}
	}
}

func TestLoadMissingFileIsEmptyCorpus(t *testing.T) {
	c, err := Load(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || c.Len() != 0 {
		t.Fatalf("missing file: len=%d err=%v", c.Len(), err)
	}
}

func TestLoadToleratesTornTailOnly(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("run1", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	// A torn final line (SIGKILL mid-append) is discarded.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"name":"corpus.entry","data":{"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := Load(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if got.Len() != 1 {
		t.Errorf("torn-tail load: %d entries, want 1", got.Len())
	}
	// The same malformed line mid-file — intact lines after it — is
	// corruption and must error.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(raw), "\n"), "\n")
	corrupted := lines[0] + `{"name":"corpus.entry","data":{"trunc` + "\n" + strings.Join(lines[1:], "")
	if err := os.WriteFile(path, []byte(corrupted+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("mid-file corruption loaded without error")
	}
}

// TestLoadRejectsOffsetAboveBound: a journal entry whose assertion has an
// offset past assertion.MaxOffset is rejected like a line that fails to
// parse — fatal mid-file, cut as the torn tail when it is the last line —
// so no reduction ever sizes a monitor by it.
func TestLoadRejectsOffsetAboveBound(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("run1", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	good := c.Entries()[0]
	a := *good.A
	a.Consequent.Offset = 1 << 62
	bad := *good
	bad.A = &a
	goodLine, err := encodeEntryEvent(nil, good)
	if err != nil {
		t.Fatal(err)
	}
	badLine, err := encodeEntryEvent(nil, &bad)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, lines ...[]byte) string {
		path := filepath.Join(dir, name)
		var buf []byte
		for _, l := range lines {
			buf = append(buf, l...)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	mid := write("mid.jsonl", goodLine, badLine, goodLine)
	if _, err := Load(mid); err == nil {
		t.Error("Load accepted an out-of-bound offset mid-file")
	}
	if _, st, err := OpenStore(mid); err == nil {
		st.Close()
		t.Error("OpenStore accepted an out-of-bound offset mid-file")
	}

	last := write("last.jsonl", goodLine, badLine)
	if got, err := Load(last); err != nil {
		t.Errorf("Load with the bad line last: %v", err)
	} else if got.Len() != 1 {
		t.Errorf("Load with the bad line last: len=%d, want the good entry", got.Len())
	}
	c2, st, err := OpenStore(last)
	if err != nil {
		t.Fatalf("OpenStore with the bad line last: %v", err)
	}
	defer st.Close()
	if c2.Len() != 1 {
		t.Errorf("OpenStore with the bad line last: len=%d, want 1", c2.Len())
	}
}

func TestOpenStorePersistsAcrossReopen(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	c1, st1, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c1.Ingest("daemon1", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved"},
		{A: noReq0ImpliesNoGnt0(), Status: "proved"},
	})
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if c2.Len() != 2 {
		t.Fatalf("restart lost entries: %d, want 2", c2.Len())
	}
	// A duplicate re-ingest after restart neither grows the corpus nor the
	// journal; a new entry appends.
	before, _ := os.Stat(path)
	c2.Ingest("daemon2", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	mid, _ := os.Stat(path)
	if c2.Len() != 2 || mid.Size() != before.Size() {
		t.Errorf("duplicate grew corpus (%d) or journal (%d -> %d)",
			c2.Len(), before.Size(), mid.Size())
	}
	c2.Ingest("daemon2", d, []Mined{{A: rstReq0ImpliesNoGnt0(), Status: "proved"}})
	after, _ := os.Stat(path)
	if c2.Len() != 3 || after.Size() <= mid.Size() {
		t.Errorf("new entry not appended: len=%d size %d -> %d",
			c2.Len(), mid.Size(), after.Size())
	}

	c3, st3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if c3.Len() != 3 {
		t.Errorf("second restart lost entries: %d, want 3", c3.Len())
	}
}

// The review repro: SIGKILL mid-append leaves a torn final line; the next
// OpenStore must truncate it before appending, or the following entry is
// welded onto the partial line and the restart after next refuses to load.
func TestOpenStoreTruncatesTornTailBeforeAppending(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	c1, st1, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c1.Ingest("daemon1", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"name":"corpus.entry","data":{"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, st2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated on open: %v", err)
	}
	if c2.Len() != 1 {
		t.Fatalf("torn-tail open: %d entries, want 1", c2.Len())
	}
	c2.Ingest("daemon2", d, []Mined{{A: noReq0ImpliesNoGnt0(), Status: "proved"}})
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, st3, err := OpenStore(path)
	if err != nil {
		t.Fatalf("journal corrupted by appending past a torn tail: %v", err)
	}
	defer st3.Close()
	if c3.Len() != 2 {
		t.Errorf("second restart has %d entries, want 2", c3.Len())
	}
}

// A crash can also land exactly between an entry's JSON and its newline. The
// unterminated line parses, but without its commit marker it is a torn tail:
// dropped and truncated, never a base for appends.
func TestOpenStoreDropsUnterminatedFinalLine(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	c1, st1, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c1.Ingest("daemon1", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved"},
		{A: noReq0ImpliesNoGnt0(), Status: "proved"},
	})
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	c2, st2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("unterminated final line not tolerated: %v", err)
	}
	if c2.Len() != 1 {
		t.Errorf("unterminated entry not dropped: %d entries, want 1", c2.Len())
	}
	c2.Ingest("daemon2", d, []Mined{{A: rstReq0ImpliesNoGnt0(), Status: "proved"}})
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	c3, st3, err := OpenStore(path)
	if err != nil {
		t.Fatalf("journal corrupted by appending past an unterminated line: %v", err)
	}
	defer st3.Close()
	if c3.Len() != 2 {
		t.Errorf("restart has %d entries, want 2", c3.Len())
	}
}

func TestStoreRecordsPersistenceErrors(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	c, st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err() != nil || st.Dropped() != 0 {
		t.Fatalf("fresh store already failed: %v / %d", st.Err(), st.Dropped())
	}
	st.Close() // make the next append fail, like a dead disk would
	c.Ingest("run1", d, []Mined{{A: rstImpliesNoGnt0(), Status: "proved"}})
	if st.Err() == nil || st.Dropped() != 1 {
		t.Errorf("append failure not recorded: err=%v dropped=%d", st.Err(), st.Dropped())
	}
	// The in-memory corpus stays authoritative despite the lost append.
	if c.Len() != 1 {
		t.Errorf("corpus lost the entry too: len=%d", c.Len())
	}
	var nilStore *Store
	if nilStore.Err() != nil || nilStore.Dropped() != 0 {
		t.Error("nil store must report no failures")
	}
}

func TestClustersCollapseSubsumed(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("r", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved"},     // general
		{A: rstReq0ImpliesNoGnt0(), Status: "proved"}, // subsumed by it
		{A: noReq0ImpliesNoGnt0(), Status: "proved"},  // independent, same cone
	})
	cls := Clusters(d, c.ForDesign(d))
	total, survivors := 0, 0
	for _, cl := range cls {
		total += len(cl.Entries)
		survivors += len(cl.Survivors)
		if cl.Collapsed() != len(cl.Entries)-len(cl.Survivors) {
			t.Errorf("Collapsed() inconsistent in cluster %q", cl.Signature)
		}
	}
	if total != 3 || survivors != 2 {
		t.Errorf("collapse kept %d of %d, want 2 of 3", survivors, total)
	}
	// The subsumed specialization is the one that went away.
	for _, cl := range cls {
		for _, e := range cl.Survivors {
			if len(e.A.Antecedent) == 2 {
				t.Errorf("subsumed specialization survived: %s", e.A)
			}
		}
	}
}

func TestReduceRetainsEverythingAndIsDeterministic(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("run1", d, []Mined{
		{A: rstImpliesNoGnt0(), Status: "proved"},
		{A: rstReq0ImpliesNoGnt0(), Status: "proved"},
		{A: noReq0ImpliesNoGnt0(), Status: "proved"},
	})
	opts := Options{Cycles: 64}
	r1, err := Reduce(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.KillRetention() != 100 || r1.CoverRetention() != 100 {
		t.Errorf("retention: kills %.1f cover %.1f, want 100/100",
			r1.KillRetention(), r1.CoverRetention())
	}
	if r1.WindowsFull == 0 {
		t.Error("oracle saw no activations — scoring stimulus never matched any antecedent")
	}
	if len(r1.Selected) == 0 || len(r1.Selected) > r1.Total {
		t.Errorf("selected %d of %d", len(r1.Selected), r1.Total)
	}
	if r1.PropsSelected > r1.PropsFull {
		t.Errorf("reduced suite costs more than the corpus: %d > %d",
			r1.PropsSelected, r1.PropsFull)
	}
	// Reducing the identical corpus again yields the identical suite.
	r2, err := Reduce(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(r *Reduction) []string {
		var ks []string
		for _, s := range r.Selected {
			ks = append(ks, s.Entry.Key)
		}
		return ks
	}
	if !reflect.DeepEqual(keys(r1), keys(r2)) {
		t.Errorf("reduction not deterministic:\n%v\n%v", keys(r1), keys(r2))
	}
	// And a corpus rebuilt from a saved journal reduces identically too.
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Reduce(d, loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(r1), keys(r3)) {
		t.Errorf("persisted corpus reduces differently:\n%v\n%v", keys(r1), keys(r3))
	}
}

func TestReduceEmptyCorpus(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	r, err := Reduce(d, New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 0 || len(r.Selected) != 0 ||
		r.KillRetention() != 100 || r.CoverRetention() != 100 {
		t.Errorf("empty corpus reduction: %+v", r)
	}
}

func TestSuiteOrderMatchesEntries(t *testing.T) {
	d := mustDesign(t, arbiterSrc)
	c := New()
	c.Ingest("r", d, []Mined{
		{A: noReq0ImpliesNoGnt0(), Status: "proved"},
		{A: rstImpliesNoGnt0(), Status: "proved"},
	})
	entries := c.ForDesign(d)
	suite := c.Suite(d)
	if len(suite) != len(entries) {
		t.Fatalf("suite %d vs entries %d", len(suite), len(entries))
	}
	for i := range suite {
		if suite[i] != entries[i].A {
			t.Errorf("suite[%d] out of order", i)
		}
	}
}

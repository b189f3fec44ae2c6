package corpus

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"goldmine/internal/jsonl"
	"goldmine/internal/telemetry"
)

// bundledJournal is a corpus journal written by the json.Unmarshal-era store
// (goldmine -reduce -corpus on arbiter2, b02, b06 and cex_small): the wire
// format as it was before the store had its own codec.
const bundledJournal = "testdata/bundled.jsonl"

// oracleDecode is how the store decoded a journal line before lineDecoder:
// json.Unmarshal into telemetry.JSONEvent, then the data payload again into
// entryJSON. FuzzDecodeEntryLine holds lineDecoder to it.
func oracleDecode(line []byte) (*Entry, error) {
	var je telemetry.JSONEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return nil, err
	}
	if je.Name != eventEntry || je.Data == nil {
		return nil, nil
	}
	var ej entryJSON
	if err := json.Unmarshal(*je.Data, &ej); err != nil {
		return nil, err
	}
	e := entryFromWire(&ej)
	if err := e.A.CheckOffsets(); err != nil {
		return nil, err
	}
	return e, nil
}

func oracleLoad(t *testing.T, path string) *Corpus {
	t.Helper()
	c := New()
	if _, err := jsonl.Replay(path, func(line []byte) error {
		e, err := oracleDecode(line)
		if e != nil {
			c.add(e)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func readLines(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

var tsField = regexp.MustCompile(`"ts_us":-?[0-9]+`)

// A journal the json.Unmarshal-era store wrote loads into the Corpus that
// store would have loaded, and saving it again writes every line as it was
// but for the timestamps.
func TestLoadBundledJournalMatchesUnmarshal(t *testing.T) {
	got, err := Load(bundledJournal)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleLoad(t, bundledJournal)
	if got.Len() == 0 || !reflect.DeepEqual(got.Entries(), want.Entries()) {
		t.Fatalf("decoded corpus (%d entries) differs from the json.Unmarshal one (%d entries)", got.Len(), want.Len())
	}
	path := filepath.Join(t.TempDir(), "resaved.jsonl")
	if err := Save(path, got); err != nil {
		t.Fatal(err)
	}
	before, after := readLines(t, bundledJournal), readLines(t, path)
	if len(before) != len(after) {
		t.Fatalf("resaved journal has %d lines, want %d", len(after), len(before))
	}
	for i := range before {
		b, a := tsField.ReplaceAll(before[i], nil), tsField.ReplaceAll(after[i], nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("line %d differs after a load/save round trip:\n got %s\nwant %s", i+1, a, b)
		}
	}
}

// The load path of an encoder-written line allocates only what the Entry
// keeps: the Entry, its assertion, the antecedent and the canonical key. The
// strings it repeats come from the intern table, and no reflection or fmt
// runs.
func TestDecodeAllocs(t *testing.T) {
	d := newLineDecoder()
	for _, line := range readLines(t, bundledJournal) {
		line = bytes.TrimSuffix(line, []byte("\n"))
		e, err := d.decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil || len(e.A.Antecedent) == 0 {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { d.decode(line) }); n > 4 {
			t.Fatalf("decoding %s allocates %.0f times, want at most 4", line, n)
		}
	}
}

// entryJSON.AppendJSON writes the bytes json.Marshal writes, for the string,
// integer and float values whose encodings differ most.
func TestEntryAppendJSONMatchesMarshal(t *testing.T) {
	strs := []string{
		"", "gnt0", "state[1]", `quote " back \ slash`, "<a href> & </a>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "line\u2028para\u2029end", "héllo 世界 😀",
		"bad \xff utf8 \xc3\x28 \xed\xa0\x80", "\xe2\x80", "trailing \xe2",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 123456789012345678901234.0, 5e-324, math.MaxFloat64, -1e-9, 100,
	}
	ints := []int{0, 1, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(1))
	pick := func() string { return strs[r.Intn(len(strs))] }
	prop := func() propJSON {
		return propJSON{Signal: pick(), Bit: ints[r.Intn(len(ints))], Offset: ints[r.Intn(len(ints))],
			Value: r.Uint64() >> uint(r.Intn(64)), Width: ints[r.Intn(len(ints))]}
	}
	for i := 0; i < 2000; i++ {
		je := entryJSON{
			NS: pick(), Design: pick(), Output: pick(), Status: pick(), Method: pick(),
			Seen: ints[r.Intn(len(ints))], FirstRun: pick(), LastRun: pick(),
			Window: ints[r.Intn(len(ints))], Confidence: floats[r.Intn(len(floats))],
			Support: ints[r.Intn(len(ints))], Cons: prop(),
		}
		if i%3 == 1 {
			je.Ant = []propJSON{}
		}
		for n := r.Intn(4); n > 0; n-- {
			je.Ant = append(je.Ant, prop())
		}
		want, err := json.Marshal(&je)
		if err != nil {
			t.Fatal(err)
		}
		got, err := je.AppendJSON([]byte("prefix"))
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON = %s (err %v)\n  json.Marshal = %s", got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		je := entryJSON{Confidence: f}
		if _, err := json.Marshal(&je); err == nil {
			t.Fatalf("json.Marshal accepted confidence %v", f)
		}
		if _, err := je.AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted confidence %v", f)
		}
	}
}

// The field names encoding/json matches keys against, per object of a
// corpus line.
var (
	envelopeFields = []string{"ts_us", "kind", "name", "span", "parent", "dur_us", "attrs", "data"}
	entryFields    = []string{"ns", "design", "output", "status", "method", "seen", "first_run", "last_run",
		"window", "confidence", "support", "ant", "cons"}
	propFields = []string{"s", "b", "o", "v", "w"}
)

// foldedKey reports whether a valid JSON line has a key that matches one of
// its object's fields only under encoding/json's case folding ("NS" for
// "ns"). encoding/json decodes such a key into the field and lineDecoder
// skips it as unknown, the codec's one documented divergence, so the fuzz
// target leaves these lines out.
func foldedKey(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber() // a number beyond float64 must not hide a folded key
	v, err := readValue(dec)
	if err != nil {
		return false
	}
	env, _ := v.([]member)
	if folded(env, envelopeFields) {
		return true
	}
	for _, m := range env {
		if m.key != "data" {
			continue
		}
		data, _ := m.val.([]member)
		if folded(data, entryFields) {
			return true
		}
		for _, f := range data {
			switch f.key {
			case "cons":
				if p, _ := f.val.([]member); folded(p, propFields) {
					return true
				}
			case "ant":
				arr, _ := f.val.([]any)
				for _, el := range arr {
					if p, _ := el.([]member); folded(p, propFields) {
						return true
					}
				}
			}
		}
	}
	return false
}

// folded reports whether obj has a key equal to one of fields only under
// case folding.
func folded(obj []member, fields []string) bool {
	for _, m := range obj {
		for _, f := range fields {
			if m.key != f && strings.EqualFold(m.key, f) {
				return true
			}
		}
	}
	return false
}

type member struct {
	key string
	val any
}

// readValue reads one JSON value from dec's token stream, objects as
// []member in key order (repeated keys kept) and arrays as []any.
func readValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case json.Delim('{'):
		var obj []member
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := readValue(dec)
			if err != nil {
				return nil, err
			}
			obj = append(obj, member{k.(string), v})
		}
		_, err := dec.Token()
		return obj, err
	case json.Delim('['):
		arr := []any{}
		for dec.More() {
			v, err := readValue(dec)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		_, err := dec.Token()
		return arr, err
	}
	return tok, nil
}

// FuzzDecodeEntryLine holds lineDecoder to the two-step json.Unmarshal path
// it replaced: on every input both accept or both reject, an accepted line
// yields DeepEqual entries (or none on both sides), and the decoder carries
// no state from one line into the next. Every accepted entry also
// re-encodes through AppendJSON exactly as json.Marshal encodes it.
func FuzzDecodeEntryLine(f *testing.F) {
	lines := readLines(f, bundledJournal)
	for _, l := range lines {
		f.Add(bytes.TrimSuffix(l, []byte("\n")))
	}
	for _, s := range []string{
		// Reordered keys: data before name, payload fields shuffled.
		`{"data":{"cons":{"w":1,"v":1,"o":1,"b":-1,"s":"gnt0"},"ant":[{"o":0,"s":"rst","v":1,"b":-1,"w":1}],"ns":"n","design":"d","output":"gnt0","status":"proved","seen":2},"kind":"event","name":"corpus.entry","ts_us":5}`,
		// null fields everywhere, a null line, null data, null elements.
		`{"ts_us":null,"kind":null,"name":"corpus.entry","span":null,"attrs":null,"data":{"ns":null,"seen":null,"confidence":null,"ant":[null,{"s":"a","o":0,"v":1}],"cons":null}}`,
		`null`, ` null `, `{"name":"corpus.entry","data":null}`,
		`{"name":"corpus.entry","data":{"ant":null,"cons":{"s":"x","o":1}}}`,
		`{"name":"corpus.entry","data":{"design":"a","design":null,"seen":3,"seen":null,"ant":[{"s":"a","o":0}],"ant":[null],"cons":{"s":"x","o":1},"cons":null}}`,
		// Escapes, surrogates, invalid UTF-8 and HTML characters in strings.
		`{"n\u0061me":"corpus.entr\u0079","data":{"ns":"\u00e9\ud83d\ude00\ud800\udc00\ud800x\udc00","design":"a\/b\\c\"d\b\f\n\r\t","cons":{"s":"<&>` + "\xff\xc3\x28" + `","o":2}}}`,
		`{"name":"corpus.entry","data":{"cons":{"s":"\ud800\ud800\u0041","o":0}}}`,
		// Duplicate keys: last name wins, data replaced, ant and cons merged.
		`{"name":"corpus.entry","data":{"seen":"bad"},"name":"other"}`,
		`{"name":"other","data":{"cons":{"s":"a","o":0}},"name":"corpus.entry"}`,
		`{"name":"corpus.entry","data":{"cons":{"s":"a","o":1}},"data":{"cons":{"o":2}}}`,
		`{"name":"corpus.entry","name":null,"data":{"ant":[{"s":"a","b":3,"o":0},{"s":"b","o":1}],"ant":[{"s":"c"}],"ant":[{"o":1},{"v":1}],"cons":{"s":"x"},"cons":{"o":1}}}`,
		`{"name":"corpus.entry","data":{"ant":[{"s":"a","o":1},{"s":"b","o":1}],"ant":[],"ant":[{"o":1},{}],"cons":{"o":1}}}`,
		// Numbers: overflow, sign, fraction, exponent, float range.
		`{"name":"corpus.entry","data":{"seen":9223372036854775807,"support":-9223372036854775808,"cons":{"v":18446744073709551615,"o":0}}}`,
		`{"name":"corpus.entry","data":{"seen":9223372036854775808,"cons":{"o":0}}}`,
		`{"name":"corpus.entry","data":{"cons":{"v":18446744073709551616,"o":0}}}`,
		`{"name":"corpus.entry","data":{"cons":{"v":-0,"o":0}}}`,
		`{"name":"corpus.entry","data":{"window":-0,"confidence":-0.0,"cons":{"o":1.0}}}`,
		`{"name":"corpus.entry","data":{"confidence":1e400,"cons":{"o":0}}}`,
		`{"name":"corpus.entry","data":{"confidence":1e-400,"window":1E2,"cons":{"o":0}}}`,
		`{"ts_us":1.5,"name":"x"}`, `{"span":-1}`, `{"span":18446744073709551615,"dur_us":-9223372036854775808}`,
		`{"attrs":{"a":[1e400]}}`, `{"attrs":{"a":[1e300,{"b":-0.0}],"c":"x"},"zz":1e400}`, `{"attrs":[]}`, `{"attrs":"x"}`,
		// Wrong types, offsets out of range, invalid syntax, truncations.
		`{"name":"corpus.entry","data":[]}`, `{"name":"corpus.entry","data":"x"}`, `{"name":1}`,
		`{"name":"corpus.entry","data":{"ant":{},"cons":{"o":0}}}`,
		`{"name":"corpus.entry","data":{"ant":[1],"cons":{"o":0}}}`,
		`{"name":"corpus.entry","data":{"cons":{"o":65}}}`, `{"name":"corpus.entry","data":{"cons":{"o":-1}}}`,
		`[]`, `"x"`, `1`, `true`, ``, ` `, `{`, `{"a"`, `{"a":}`, `{"a":1,}`, `{"a":01}`, `{"a":-}`, `{"a":1.}`,
		`{"a":.5}`, `{"a":1e}`, `{"a":tru}`, `{"a":nul}`, `{"a":"\x"}`, `{"a":"\u12g4"}`, "{\"a\":\"\x01\"}",
		`{"a":1}x`, `{"a":1} {}`, `{"a":[1 2]}`, `{"a":{"b" 1}}`, `{"a":{1:2}}`, "{\"a\":1}\r",
		// Case-folded keys, left out by the target.
		`{"NAME":"corpus.entry","data":{"cons":{"o":0}}}`,
		`{"name":"corpus.entry","x":1e400,"DATA":{"cons":{"o":0}}}`,
	} {
		f.Add([]byte(s))
	}
	// Nesting at encoding/json's depth limit and one past it.
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		f.Add([]byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`))
		f.Add([]byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	// Truncations of an encoder-written entry line.
	entry := bytes.TrimSuffix(lines[1], []byte("\n"))
	for _, n := range []int{1, 10, len(entry) / 2, len(entry) - 2, len(entry) - 1} {
		f.Add(entry[:n])
	}

	d := newLineDecoder()
	warm, err := d.decode(entry)
	if err != nil || warm == nil {
		f.Fatalf("decoding the warm-up line: %v", err)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if foldedKey(line) {
			t.Skip("key matches a field only under case folding")
		}
		got, gerr := d.decode(line)
		want, werr := oracleDecode(line)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoder err=%v, json.Unmarshal err=%v on %q", gerr, werr, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded entries differ on %q:\n got %+v\nwant %+v", line, got, want)
		}
		if again, err := d.decode(entry); err != nil || !reflect.DeepEqual(again, warm) {
			t.Fatalf("decoder state leaked from %q into the next line: %v", line, err)
		}
		if got == nil {
			return
		}
		je := entryWire(got)
		enc, err := je.AppendJSON(nil)
		want2, err2 := json.Marshal(&je)
		if err != nil || err2 != nil || !bytes.Equal(enc, want2) {
			t.Fatalf("re-encoding %+v: AppendJSON %s (%v), json.Marshal %s (%v)", je, enc, err, want2, err2)
		}
	})
}

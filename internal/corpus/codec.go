package corpus

// The corpus journal's codec. Lines are encoded by telemetry.EncodeEvent with
// the entry payload rendered by entryJSON.AppendJSON, byte for byte what
// json.Marshal writes, and decoded by lineDecoder in one pass without
// reflection. The decoder accepts and rejects exactly the lines the
// two-step json.Unmarshal into telemetry.JSONEvent and then entryJSON
// accepts and rejects, and yields the same Entry; FuzzDecodeEntryLine keeps
// that path as its oracle. The one divergence is deliberate: encoding/json
// also matches a key to a field case-insensitively ("NS" for "ns"), and the
// decoder treats such a key as unknown.

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// AppendJSON appends je as json.Marshal renders it: the fields in
// declaration order, omitempty honoured, strings HTML-escaped, floats in
// encoding/json's format. A NaN or infinite confidence has no JSON form and
// is an error, as it is for json.Marshal. telemetry.EncodeEvent calls it in
// place of json.Marshal.
func (je *entryJSON) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"ns":`...)
	b = appendMarshalString(b, je.NS)
	b = append(b, `,"design":`...)
	b = appendMarshalString(b, je.Design)
	b = append(b, `,"output":`...)
	b = appendMarshalString(b, je.Output)
	b = append(b, `,"status":`...)
	b = appendMarshalString(b, je.Status)
	if je.Method != "" {
		b = append(b, `,"method":`...)
		b = appendMarshalString(b, je.Method)
	}
	b = append(b, `,"seen":`...)
	b = strconv.AppendInt(b, int64(je.Seen), 10)
	if je.FirstRun != "" {
		b = append(b, `,"first_run":`...)
		b = appendMarshalString(b, je.FirstRun)
	}
	if je.LastRun != "" {
		b = append(b, `,"last_run":`...)
		b = appendMarshalString(b, je.LastRun)
	}
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(je.Window), 10)
	b = append(b, `,"confidence":`...)
	f := je.Confidence
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, errors.New("corpus: confidence " + strconv.FormatFloat(f, 'g', -1, 64) + " has no JSON form")
	}
	b = appendMarshalFloat(b, f)
	b = append(b, `,"support":`...)
	b = strconv.AppendInt(b, int64(je.Support), 10)
	if len(je.Ant) > 0 {
		b = append(b, `,"ant":[`...)
		for i := range je.Ant {
			if i > 0 {
				b = append(b, ',')
			}
			b = je.Ant[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"cons":`...)
	b = je.Cons.appendJSON(b)
	return append(b, '}'), nil
}

func (p *propJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"s":`...)
	b = appendMarshalString(b, p.Signal)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(p.Bit), 10)
	b = append(b, `,"o":`...)
	b = strconv.AppendInt(b, int64(p.Offset), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendUint(b, p.Value, 10)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(p.Width), 10)
	return append(b, '}')
}

// appendMarshalString appends s as a JSON string the way json.Marshal
// writes one: '<', '>' and '&' escaped as \u003c-style escapes, \b \f \n \r
// \t short escapes and other control bytes as \u00XX, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by \ufffd.
func appendMarshalString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendMarshalFloat appends a finite f as json.Marshal formats a float64:
// the shortest representation, in exponent form only below 1e-6 or from
// 1e21 up, with the exponent unpadded (1e-7, not 1e-07).
func appendMarshalFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// maxDepth is encoding/json's nesting limit: a line nesting arrays and
// objects deeper than this is invalid JSON to it, so to the decoder too.
const maxDepth = 10000

// lineDecoder decodes corpus journal lines. One decoder serves one load: it
// holds the scratch entry payloads are decoded into and a table interning
// the strings every line repeats (namespace, design, output, status, method,
// run labels, signal names), so a load allocates each of them once. It never
// retains a line.
type lineDecoder struct {
	buf   []byte // the line being decoded
	pos   int
	depth int
	// typeErr is the first type mismatch in the payload being decoded. Like
	// encoding/json the decoder records it and goes on, so the rest of the
	// line is still checked for syntax, and the line is rejected only if the
	// payload turns out to be the one that counts.
	typeErr error
	ej      entryJSON
	esc     []byte // a string whose escapes were resolved
	strs    map[string]string
}

func newLineDecoder() *lineDecoder {
	return &lineDecoder{strs: map[string]string{}}
}

// decodeError reports a line that is not valid JSON, or whose values do not
// fit the journal's types.
type decodeError struct {
	off int
	msg string
}

func (e *decodeError) Error() string {
	return "corpus: decode: " + e.msg + " at byte " + strconv.Itoa(e.off)
}

func (d *lineDecoder) fail(msg string) error { return &decodeError{off: d.pos, msg: msg} }

// decode parses one journal line. It returns the entry of a corpus.entry
// line, nil for any other valid line, and an error for a line that is not
// valid JSON, does not fit the telemetry.JSONEvent or entryJSON types, or
// holds an assertion whose offsets CheckOffsets refuses.
//
// The envelope's keys may come in any order and repeat (the last one
// counts). The data payload is decoded straight into the scratch entry when
// the name already read is corpus.entry, as it is on every line the encoder
// writes; otherwise it is only checked, and decoded afterwards if a later
// name makes the line an entry.
func (d *lineDecoder) decode(line []byte) (*Entry, error) {
	d.buf, d.pos, d.depth = line, 0, 0
	d.space()
	if d.pos < len(d.buf) && d.buf[d.pos] == 'n' {
		// A null line decodes into an empty envelope: a valid non-entry line.
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return nil, d.end()
	}
	if err := d.open('{'); err != nil {
		return nil, err
	}
	var (
		isEntry        bool // the last non-null name is corpus.entry
		hasData        bool // the last data is not null
		decoded        bool // ... and was decoded into d.ej during the scan
		dataErr        error
		dataLo, dataHi int
	)
	for more, err := d.first('}'); more; more, err = d.next('}') {
		if err != nil {
			return nil, err
		}
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		switch string(key) {
		case "ts_us", "dur_us":
			err = d.envNumber(true)
		case "span", "parent":
			err = d.envNumber(false)
		case "kind":
			_, _, err = d.envString()
		case "name":
			var s []byte
			var null bool
			if s, null, err = d.envString(); !null {
				isEntry = string(s) == eventEntry
			}
		case "attrs":
			err = d.attrs()
		case "data":
			d.space()
			hasData, decoded = !d.peek('n'), false
			switch {
			case !hasData:
				err = d.literal("null")
			case isEntry:
				dataLo = d.pos
				dataErr, err = d.entry()
				decoded = true
			default:
				dataLo = d.pos
				err = d.skip(false)
			}
			dataHi = d.pos
		default:
			err = d.skip(false)
		}
		if err != nil {
			return nil, err
		}
	}
	d.depth--
	if err := d.end(); err != nil {
		return nil, err
	}
	if !isEntry || !hasData {
		return nil, nil
	}
	if !decoded {
		d.buf, d.pos = line[:dataHi], dataLo
		var err error
		if dataErr, err = d.entry(); err != nil {
			return nil, err
		}
	}
	if dataErr != nil {
		return nil, dataErr
	}
	e := entryFromWire(&d.ej)
	if err := e.A.CheckOffsets(); err != nil {
		return nil, err
	}
	return e, nil
}

// entry decodes one data payload into a fresh d.ej. It returns the payload's
// first type mismatch apart from err, which is a syntax error.
func (d *lineDecoder) entry() (typeErr error, err error) {
	ant := d.ej.Ant[:cap(d.ej.Ant)]
	clear(ant)
	d.ej = entryJSON{Ant: ant[:0]}
	d.typeErr = nil
	d.space()
	if !d.peek('{') {
		d.mismatch()
		return d.typeErr, d.skip(false)
	}
	if err := d.open('{'); err != nil {
		return nil, err
	}
	je := &d.ej
	for more, err := d.first('}'); more; more, err = d.next('}') {
		if err != nil {
			return nil, err
		}
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		switch string(key) {
		case "ns":
			err = d.str(&je.NS)
		case "design":
			err = d.str(&je.Design)
		case "output":
			err = d.str(&je.Output)
		case "status":
			err = d.str(&je.Status)
		case "method":
			err = d.str(&je.Method)
		case "first_run":
			err = d.str(&je.FirstRun)
		case "last_run":
			err = d.str(&je.LastRun)
		case "seen":
			err = d.int(&je.Seen)
		case "window":
			err = d.int(&je.Window)
		case "support":
			err = d.int(&je.Support)
		case "confidence":
			err = d.float(&je.Confidence)
		case "ant":
			err = d.ant()
		case "cons":
			err = d.prop(&je.Cons)
		default:
			err = d.skip(false)
		}
		if err != nil {
			return nil, err
		}
	}
	d.depth--
	return d.typeErr, nil
}

// ant decodes the antecedent array the way encoding/json decodes into a
// slice it already holds: elements are decoded over the existing ones, so a
// repeated "ant" key merges into what the earlier one left, and an empty
// array or null drops the backing array.
func (d *lineDecoder) ant() error {
	ant := d.ej.Ant
	d.space()
	switch {
	case d.peek('n'):
		clear(ant[:cap(ant)])
		d.ej.Ant = ant[:0]
		return d.literal("null")
	case !d.peek('['):
		d.mismatch()
		return d.skip(false)
	}
	if err := d.open('['); err != nil {
		return err
	}
	i := 0
	for more, err := d.first(']'); more; more, err = d.next(']') {
		if err != nil {
			return err
		}
		if i == len(ant) {
			if i < cap(ant) {
				ant = ant[:i+1]
			} else {
				ant = append(ant, propJSON{})
			}
		}
		if err := d.prop(&ant[i]); err != nil {
			return err
		}
		i++
	}
	d.depth--
	if i == 0 {
		clear(ant[:cap(ant)])
	}
	d.ej.Ant = ant[:i]
	return nil
}

// prop decodes one proposition object over p (null leaves p as it is).
func (d *lineDecoder) prop(p *propJSON) error {
	d.space()
	if d.peek('n') {
		return d.literal("null")
	}
	if !d.peek('{') {
		d.mismatch()
		return d.skip(false)
	}
	if err := d.open('{'); err != nil {
		return err
	}
	for more, err := d.first('}'); more; more, err = d.next('}') {
		if err != nil {
			return err
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		switch string(key) {
		case "s":
			err = d.str(&p.Signal)
		case "b":
			err = d.int(&p.Bit)
		case "o":
			err = d.int(&p.Offset)
		case "v":
			err = d.uint(&p.Value)
		case "w":
			err = d.int(&p.Width)
		default:
			err = d.skip(false)
		}
		if err != nil {
			return err
		}
	}
	d.depth--
	return nil
}

// attrs checks the envelope's attrs value. encoding/json decodes it into a
// map[string]any, so it must be an object or null, and every number in it
// must fit a float64.
func (d *lineDecoder) attrs() error {
	d.space()
	if !d.peek('{') && !d.peek('n') {
		return d.fail("attrs is not an object")
	}
	return d.skip(true)
}

// The field decoders below read one value into a payload field: null leaves
// the field as it is, a value of the wrong type is recorded with mismatch
// and skipped.

func (d *lineDecoder) str(dst *string) error {
	s, null, err := d.string()
	switch {
	case err == errNotString:
		d.mismatch()
		return d.skip(false)
	case err != nil || null:
		return err
	}
	if v, ok := d.strs[string(s)]; ok {
		*dst = v
		return nil
	}
	v := string(s)
	d.strs[v] = v
	*dst = v
	return nil
}

func (d *lineDecoder) int(dst *int) error {
	num, null, err := d.number()
	if err != nil || null {
		return err
	}
	if n, ok := parseInt(num); ok && n == int64(int(n)) {
		*dst = int(n)
	} else {
		d.mismatch()
	}
	return nil
}

func (d *lineDecoder) uint(dst *uint64) error {
	num, null, err := d.number()
	if err != nil || null {
		return err
	}
	if n, ok := parseUint(num); ok {
		*dst = n
	} else {
		d.mismatch()
	}
	return nil
}

func (d *lineDecoder) float(dst *float64) error {
	num, null, err := d.number()
	if err != nil || null {
		return err
	}
	if f, perr := strconv.ParseFloat(string(num), 64); perr == nil {
		*dst = f
	} else {
		d.mismatch()
	}
	return nil
}

// number reads a number, or null. A value of another type is recorded
// with mismatch, skipped, and reported as null.
func (d *lineDecoder) number() (num []byte, null bool, err error) {
	d.space()
	switch {
	case d.peek('n'):
		return nil, true, d.literal("null")
	case d.pos < len(d.buf) && (d.buf[d.pos] == '-' || '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9'):
		lo := d.pos
		err := d.scanNumber()
		return d.buf[lo:d.pos], false, err
	}
	d.mismatch()
	return nil, true, d.skip(false)
}

// mismatch records a type mismatch in the payload being decoded.
func (d *lineDecoder) mismatch() {
	if d.typeErr == nil {
		d.typeErr = d.fail("value of the wrong type")
	}
}

// The envelope's fields: a type mismatch there rejects the line outright,
// whatever its name.

// envNumber checks an int64 (signed) or uint64 field of the envelope: null,
// or a number that fits the type.
func (d *lineDecoder) envNumber(signed bool) error {
	d.space()
	if !d.peek('n') && !d.peek('-') && !(d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9') {
		return d.fail("value is not a number")
	}
	num, null, err := d.number()
	if err != nil || null {
		return err
	}
	ok := false
	if signed {
		_, ok = parseInt(num)
	} else {
		_, ok = parseUint(num)
	}
	if !ok {
		return d.fail("number does not fit its field")
	}
	return nil
}

func (d *lineDecoder) envString() ([]byte, bool, error) {
	s, null, err := d.string()
	if err == errNotString {
		return nil, false, d.fail("value is not a string")
	}
	return s, null, err
}

// parseInt parses a JSON number token as encoding/json does for an int64:
// no fraction, no exponent, within range.
func parseInt(num []byte) (int64, bool) {
	neg := len(num) > 0 && num[0] == '-'
	if neg {
		num = num[1:]
	}
	u, ok := parseUint(num)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// parseUint parses a JSON number token as encoding/json does for a uint64:
// digits only (no sign, fraction or exponent), within range.
func parseUint(num []byte) (uint64, bool) {
	if len(num) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		if u > (math.MaxUint64-9)/10 {
			// Close to the limit: finish the last digits exactly.
			n, err := strconv.ParseUint(string(num), 10, 64)
			return n, err == nil
		}
		u = u*10 + uint64(c-'0')
	}
	return u, true
}

// --- scanner ----------------------------------------------------------------

// errNotString is string's report that the value is not a string or null;
// nothing of it has been consumed.
var errNotString = errors.New("not a string")

func (d *lineDecoder) peek(c byte) bool { return d.pos < len(d.buf) && d.buf[d.pos] == c }

func (d *lineDecoder) space() {
	buf, i := d.buf, d.pos
	if i < len(buf) && buf[i] > ' ' {
		return // the common case: the encoder writes no whitespace
	}
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\t' || buf[i] == '\r' || buf[i] == '\n') {
		i++
	}
	d.pos = i
}

// end checks that only whitespace follows the line's value.
func (d *lineDecoder) end() error {
	d.space()
	if d.pos != len(d.buf) {
		return d.fail("data after the top-level value")
	}
	return nil
}

func (d *lineDecoder) literal(lit string) error {
	if len(d.buf)-d.pos < len(lit) || string(d.buf[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// open consumes the opening bracket c of an object or array, counting its
// depth against encoding/json's limit.
func (d *lineDecoder) open(c byte) error {
	d.space()
	if !d.peek(c) {
		return d.fail("expected " + string(c))
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return d.fail("nesting too deep")
	}
	return nil
}

// first and next walk the members of the object or array just opened: first
// reports whether there is a first member, next consumes the comma or the
// closing bracket after a member and reports whether another follows. The
// caller decrements depth after the walk.
func (d *lineDecoder) first(closer byte) (bool, error) {
	d.space()
	if d.peek(closer) {
		d.pos++
		return false, nil
	}
	return true, nil
}

func (d *lineDecoder) next(closer byte) (bool, error) {
	d.space()
	switch {
	case d.peek(','):
		d.pos++
		return true, nil
	case d.peek(closer):
		d.pos++
		return false, nil
	}
	return true, d.fail("expected , or " + string(closer))
}

// key reads an object key and its colon. The returned bytes are valid until
// the next string is read.
func (d *lineDecoder) key() ([]byte, error) {
	k, null, err := d.string()
	if err != nil || null {
		return nil, d.fail("expected a string key")
	}
	d.space()
	if !d.peek(':') {
		return nil, d.fail("expected :")
	}
	d.pos++
	return k, nil
}

// string reads a string, or null, and returns its value with escapes
// resolved and invalid UTF-8 replaced by U+FFFD, as encoding/json unquotes.
// The bytes alias the line, or d.esc, until the next string is read. A value
// of another type returns errNotString without consuming anything.
func (d *lineDecoder) string() (s []byte, null bool, err error) {
	d.space()
	switch {
	case d.peek('n'):
		return nil, true, d.literal("null")
	case !d.peek('"'):
		return nil, false, errNotString
	}
	lo := d.pos + 1
	plain, err := d.scanString()
	if err != nil {
		return nil, false, err
	}
	raw := d.buf[lo : d.pos-1]
	if plain {
		return raw, false, nil
	}
	d.esc = unquote(d.esc[:0], raw)
	return d.esc, false, nil
}

// scanString consumes a string whose opening quote is at d.pos and reports
// whether its contents are plain: no escapes and valid UTF-8.
func (d *lineDecoder) scanString() (plain bool, err error) {
	buf := d.buf
	i := d.pos + 1
	lo := i
	for i < len(buf) && plainASCII[buf[i]] {
		i++ // the common case: nothing to check but the closing quote
	}
	plain, ascii := true, true
	for ; i < len(buf); i++ {
		switch c := buf[i]; {
		case c == '"':
			if !ascii && plain {
				plain = utf8.Valid(buf[lo:i])
			}
			d.pos = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(buf) {
				break
			}
			switch buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := i + 4; i < end; {
					if i++; i >= len(buf) || unhex(buf[i]) < 0 {
						d.pos = i
						return false, d.fail("invalid \\u escape")
					}
				}
			default:
				d.pos = i
				return false, d.fail("invalid escape")
			}
		case c < 0x20:
			d.pos = i
			return false, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = i
	return false, d.fail("unterminated string")
}

// plainASCII marks the bytes a string can hold that need no checking: ASCII
// from space up, except the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanNumber consumes a number token in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *lineDecoder) scanNumber() error {
	digits := func() int {
		n := 0
		for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.peek('-') {
		d.pos++
	}
	if d.peek('0') {
		d.pos++
	} else if digits() == 0 {
		return d.fail("invalid number")
	}
	if d.peek('.') {
		d.pos++
		if digits() == 0 {
			return d.fail("invalid number")
		}
	}
	if d.peek('e') || d.peek('E') {
		d.pos++
		if d.peek('+') || d.peek('-') {
			d.pos++
		}
		if digits() == 0 {
			return d.fail("invalid number")
		}
	}
	return nil
}

// skip consumes one value, checking its syntax and nesting depth. With
// floats set, every number in it must also parse as a float64, as
// encoding/json requires of a number decoded into an interface.
func (d *lineDecoder) skip(floats bool) error {
	d.space()
	if d.pos >= len(d.buf) {
		return d.fail("unexpected end of line")
	}
	switch c := d.buf[d.pos]; c {
	case '{', '[':
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if err := d.open(c); err != nil {
			return err
		}
		for more, err := d.first(closer); more; more, err = d.next(closer) {
			if err != nil {
				return err
			}
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(floats); err != nil {
				return err
			}
		}
		d.depth--
		return nil
	case '"':
		_, err := d.scanString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	lo := d.pos
	if err := d.scanNumber(); err != nil {
		return err
	}
	if floats {
		if _, err := strconv.ParseFloat(string(d.buf[lo:d.pos]), 64); err != nil {
			return d.fail("number does not fit a float64")
		}
	}
	return nil
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unquote appends the value of the string contents s, which scanString has
// checked, resolving escapes as encoding/json does: a valid surrogate pair
// becomes its rune, any other surrogate escape U+FFFD, and each byte of
// invalid UTF-8 U+FFFD.
func unquote(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != utf8.RuneError {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
				}
				b = utf8.AppendRune(b, rr) // a lone surrogate appends U+FFFD
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

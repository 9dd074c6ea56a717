package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The event, span and decision logs share one envelope:
//
//	# provenance lines, optional, anywhere
//	{"schema":"polca-events/v1"}              one header object, "schema" first
//	{"seq":1,"t_us":0,"kind":"req.arrive"}    one record per line, "seq" first,
//	{"seq":2,"t_us":5,"kind":"req.drop"}      numbered 1, 2, 3, … in file order
//
// writeLog writes it and scanLog reads it. The formats differ only in the
// schema their header names, the header's other members (a decision log
// carries the replay metadata) and the members of their records.

// logFormat is one log's envelope: the schema its header names and the
// noun its errors use.
type logFormat struct{ noun, schema string }

var (
	eventLog    = logFormat{"events", "polca-events/v1"}
	spanLog     = logFormat{"spans", "polca-spans/v1"}
	decisionLog = logFormat{"decisions", DecisionSchema}
)

// logHeader is the header of a log that carries nothing but its schema.
type logHeader struct {
	Schema string `json:"schema"`
}

// writeLog writes a log: header as one JSON object, then one line per
// record, numbered from 1. members appends a record's members, each led by
// a comma. Record lines are hand-rolled (fixed member order, zero members
// omitted) so identical runs write identical bytes; the header uses
// encoding/json, which is deterministic for a struct. A bufio.Writer keeps
// its first write error and returns it from Flush, so only Flush is
// checked.
func writeLog[R any](w io.Writer, header any, recs []R, members func([]byte, R) []byte) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.Write(append(hdr, '\n'))
	buf := make([]byte, 0, 512)
	for i, rec := range recs {
		buf = append(appendRecord(buf[:0], uint64(i+1), rec, members), '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}

// appendRecord appends one record line's object: the envelope's seq, then
// the record's members.
func appendRecord[R any](b []byte, seq uint64, rec R, members func([]byte, R) []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	return append(members(b, rec), '}')
}

// maxJSONLLine bounds one JSONL line. Record lines are a few hundred
// bytes, but the limit is generous so a hand-edited or concatenated file
// fails with a line-numbered error rather than a silent mid-file stop.
const maxJSONLLine = 64 * 1024 * 1024

// scanLog streams a log written by writeLog, line by line. Blank lines are
// skipped and `#` lines go to comment (when non-nil). The first other line
// is the header: it must name f's schema, and header (when non-nil)
// receives its members. parse decodes each later line into a record and
// its seq, and fn receives the records in file order. A seq that is not
// the next one means lines were lost, repeated, reordered or spliced in.
// Every error, fn's included (which aborts the scan), comes back as
// "<noun> line N: …"; a log without a header is an error too.
func scanLog[R any](r io.Reader, f logFormat, header any, comment func(line string), parse func(raw []byte) (R, uint64, error), fn func(R) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLine)
	line, last := 0, uint64(0) // last is the last record's seq
	sawHeader := false
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '#' {
			if comment != nil {
				comment(string(raw))
			}
			continue
		}
		var err error
		if !sawHeader {
			sawHeader = true
			err = readHeader(raw, f.schema, header)
		} else if rec, seq, perr := parse(raw); perr != nil {
			err = perr
		} else if seq != last+1 {
			err = seqError(f.noun, seq, last+1)
		} else {
			last = seq
			err = fn(rec)
		}
		if err != nil {
			return fmt.Errorf("%s line %d: %w", f.noun, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%s line %d: longer than %d bytes: %w", f.noun, line+1, maxJSONLLine, err)
		}
		return fmt.Errorf("%s line %d: %w", f.noun, line+1, err)
	}
	if !sawHeader {
		return fmt.Errorf("%s: empty log (no header line)", f.noun)
	}
	return nil
}

// headerFields are the header members the envelope itself reads.
var headerFields = []string{"schema"}

// readHeader checks that raw is a header object naming schema and
// decodes it into header, when non-nil.
func readHeader(raw []byte, schema string, header any) error {
	var buf [32]byte
	got := buf[:0]
	d := recordDecoder{data: raw}
	for d.member(headerFields) {
		if s, ok := d.text(); ok {
			got = append(got[:0], s...)
		}
	}
	switch {
	case d.err != nil:
		return fmt.Errorf("header: %w", d.err)
	case string(got) != schema:
		return fmt.Errorf("schema %q, want %q", string(got), schema)
	case header != nil:
		if err := json.Unmarshal(raw, header); err != nil {
			return fmt.Errorf("header: %w", err)
		}
	}
	return nil
}

// seqError describes a record whose seq is not the want the envelope
// expects next.
func seqError(noun string, seq, want uint64) error {
	switch {
	case seq == 0:
		return fmt.Errorf("missing seq, want %d", want)
	case seq > want:
		return fmt.Errorf("sequence gap: seq %d, want %d (%d %s missing)", seq, want, seq-want, noun)
	}
	return fmt.Errorf("sequence regression: seq %d, want %d", seq, want)
}

// maxJSONDepth is encoding/json's nesting limit. The record decoder applies
// it to the members it skips, so it rejects the over-deep lines
// json.Unmarshal rejects.
const maxJSONDepth = 10000

// recordDecoder reads one record line, a single JSON object, in one pass
// and without reflection. parseEventLine, parseSpanLine and
// parseDecisionLine drive it: member advances to the next member whose key
// is one of the format's names, and a switch over that name reads the
// value with the typed readers straight into the record.
//
// It accepts exactly the objects json.Unmarshal accepts into a struct with
// those fields, and yields the same values, with one exception: a line
// that repeats a known key is rejected (json.Unmarshal keeps the last),
// which no writer emits. A line that is not an object is rejected too;
// every format needs its kind member. As in encoding/json, keys match a
// name exactly first and then by bytes.EqualFold; null leaves a field
// unchanged; a number follows the JSON grammar and then goes through
// strconv at the field's bit size; invalid UTF-8 in a string becomes
// U+FFFD; unknown members are validated and skipped; bytes after the
// object are an error. The first error sticks: member then reports false
// and err holds it.
type recordDecoder struct {
	data []byte
	pos  int
	open bool   // the object's opening brace has been read
	seen uint64 // bit i: names[i] has been read
	next int    // names index after the last member read
	key  string // the current member's name, from names
	buf  []byte // scratch for strings that need unescaping
	err  error
}

// member advances to the object's next member with a known name, sets key
// to that name and reports whether there is one. Members with other names
// are validated and skipped on the way.
func (d *recordDecoder) member(names []string) bool {
	for d.err == nil {
		d.space()
		switch {
		case !d.open:
			if !d.consume('{') {
				d.syntaxError("an object")
				return false
			}
			d.open = true
			d.space()
			if d.consume('}') {
				d.end()
				return false
			}
		case d.consume('}'):
			d.end()
			return false
		case d.consume(','):
			d.space()
		default:
			d.syntaxError("',' or '}'")
			return false
		}
		if d.peek() != '"' {
			d.syntaxError("a string key")
			return false
		}
		key := d.quoted()
		d.space()
		if !d.consume(':') {
			d.syntaxError("':'")
			return false
		}
		d.space()
		i := fieldIndex(key, names, d.next)
		if i < 0 {
			d.skip(1)
			continue
		}
		if d.seen&(1<<i) != 0 {
			d.fail(fmt.Errorf("repeated member %q", names[i]))
			return false
		}
		d.seen |= 1 << i
		d.key, d.next = names[i], i+1
		return true
	}
	return false
}

// fieldIndex returns the index of the name key matches, exactly or else by
// bytes.EqualFold, or -1. The exact search starts at from: the writers
// emit members in names order, so the next key is usually there.
func fieldIndex(key []byte, names []string, from int) int {
	for n := range names {
		if i := (from + n) % len(names); string(key) == names[i] {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// end checks that only whitespace follows the object's closing brace.
func (d *recordDecoder) end() {
	d.space()
	if d.pos < len(d.data) {
		d.syntaxError("the end of the line")
	}
}

func (d *recordDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *recordDecoder) syntaxError(want string) {
	if d.pos >= len(d.data) {
		d.fail(fmt.Errorf("unexpected end of line, want %s", want))
		return
	}
	d.fail(fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.pos], d.pos, want))
}

// space skips JSON whitespace.
func (d *recordDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the line.
func (d *recordDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *recordDecoder) consume(c byte) bool {
	if d.peek() == c {
		d.pos++
		return true
	}
	return false
}

// literal consumes lit ("true", "false" or "null") if it comes next.
func (d *recordDecoder) literal(lit string) bool {
	if d.peek() == lit[0] && len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// quoted reads the JSON string at the cursor and returns its unescaped
// bytes. They alias the line or the scratch buffer, so they are valid only
// until the next read.
func (d *recordDecoder) quoted() []byte {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.pos = len(d.data)
	d.syntaxError("'\"'")
	return nil
}

// unquote finishes a string that needs unescaping or UTF-8 repair, from
// i on, into the scratch buffer.
func (d *recordDecoder) unquote(start, i int) []byte {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return b
		case c < ' ':
			d.pos = i
			d.syntaxError("a string character")
			return nil
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += n
		default:
			esc := byte(0)
			if i+1 < len(d.data) {
				esc = d.data[i+1]
			}
			switch esc {
			case '"', '\\', '/':
				b = append(b, esc)
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
				r := hex4(d.data[i:])
				if r < 0 {
					d.pos = i
					d.syntaxError("a \\u escape with four hex digits")
					return nil
				}
				i += 6
				// A surrogate pair decodes to one rune; a lone surrogate
				// becomes U+FFFD and the escape after it stands alone.
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(d.data[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				d.syntaxError("a valid escape")
				return nil
			}
			i += 2
		}
	}
	d.pos = len(d.data)
	d.syntaxError("'\"'")
	return nil
}

// hex4 decodes the \uXXXX escape that s starts with, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a JSON number literal, or null (ok false).
func (d *recordDecoder) number() (lit []byte, ok bool) {
	if d.literal("null") {
		return nil, false
	}
	b, start := d.data, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	switch {
	case j == i:
		d.pos = i
		d.syntaxError("a number")
		return nil, false
	case b[i] == '0':
		i++ // a digit after a leading zero ends the number
	default:
		i = j
	}
	if i < len(b) && b[i] == '.' {
		if j = digits(b, i+1); j == i+1 {
			d.pos = j
			d.syntaxError("a digit")
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			d.pos = i
			d.syntaxError("a digit")
			return nil, false
		}
		i = j
	}
	d.pos = i
	return b[start:i], true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer reads a number that strconv.ParseInt accepts at bits, or null.
func (d *recordDecoder) integer(bits int) (int64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.fail(fmt.Errorf("member %q: %w", d.key, err))
		return 0, false
	}
	return n, true
}

// float reads a number that strconv.ParseFloat accepts, or null.
func (d *recordDecoder) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail(fmt.Errorf("member %q: %w", d.key, err))
		return 0, false
	}
	return f, true
}

// The typed readers store the current member's value into dst; null, or
// an error, leaves dst unchanged.

func (d *recordDecoder) int64(dst *int64) {
	if n, ok := d.integer(64); ok {
		*dst = n
	}
}

func (d *recordDecoder) int32(dst *int32) {
	if n, ok := d.integer(32); ok {
		*dst = int32(n)
	}
}

func (d *recordDecoder) int8(dst *int8) {
	if n, ok := d.integer(8); ok {
		*dst = int8(n)
	}
}

func (d *recordDecoder) uint64(dst *uint64) {
	lit, ok := d.number()
	if !ok {
		return
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.fail(fmt.Errorf("member %q: %w", d.key, err))
		return
	}
	*dst = n
}

// float64 also reports whether it stored a value.
func (d *recordDecoder) float64(dst *float64) bool {
	f, ok := d.float()
	if ok {
		*dst = f
	}
	return ok
}

// micros reads an integer count of microseconds as a duration.
func (d *recordDecoder) micros(dst *time.Duration) {
	if n, ok := d.integer(64); ok {
		*dst = time.Duration(n) * time.Microsecond
	}
}

func (d *recordDecoder) bool(dst *bool) {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	case !d.literal("null"):
		d.syntaxError("a boolean")
	}
}

// text reads a string without copying it (see quoted), or null (ok false).
func (d *recordDecoder) text() (s []byte, ok bool) {
	if d.peek() == '"' {
		s = d.quoted()
		return s, d.err == nil
	}
	if !d.literal("null") {
		d.syntaxError("a string")
	}
	return nil, false
}

func (d *recordDecoder) string(dst *string) {
	if s, ok := d.text(); ok {
		*dst = string(s)
	}
}

// pool reads a pool name: "low" or "high", any other string PoolNone.
func (d *recordDecoder) pool(dst *int8) {
	s, ok := d.text()
	if !ok {
		return
	}
	switch string(s) {
	case "low":
		*dst = PoolLow
	case "high":
		*dst = PoolHigh
	default:
		*dst = PoolNone
	}
}

// skip validates and passes over one value of an unknown member inside
// depth open objects and arrays.
func (d *recordDecoder) skip(depth int) {
	switch c := d.peek(); c {
	case '"':
		d.quoted()
	case '{', '[':
		if depth >= maxJSONDepth {
			d.syntaxError("nesting within the depth limit")
			return
		}
		closing := byte(']')
		if c == '{' {
			closing = '}'
		}
		d.pos++
		d.space()
		if d.consume(closing) {
			return
		}
		for d.err == nil {
			if c == '{' {
				if d.peek() != '"' {
					d.syntaxError("a string key")
					return
				}
				d.quoted()
				d.space()
				if !d.consume(':') {
					d.syntaxError("':'")
					return
				}
				d.space()
			}
			d.skip(depth + 1)
			d.space()
			switch {
			case d.consume(','):
				d.space()
			case d.consume(closing):
				return
			default:
				d.syntaxError("',' or a closing bracket")
			}
		}
	case 't':
		if !d.literal("true") {
			d.syntaxError("true")
		}
	case 'f':
		if !d.literal("false") {
			d.syntaxError("false")
		}
	default:
		// number also accepts null.
		d.number()
	}
}

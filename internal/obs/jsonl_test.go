package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// recordFormat pairs one wire format's decoder with its encoding/json
// reference. Records come back boxed, beside their seq, so the three
// formats share the checks; decisions also return their candidates.
type recordFormat struct {
	name   string
	fields []string
	decode func(raw []byte) (any, uint64, []RouteCandidate, error)
	oracle func(raw []byte) (any, uint64, []RouteCandidate, error)
}

// candBase prefills the candidate arena both decision decoders append to,
// so a route's EpOff is checked at a non-zero offset.
var candBase = []RouteCandidate{{Server: 7, Load: 1, KVFrac: 0.5}}

var recordFormats = []recordFormat{
	{
		name: "event", fields: eventFields,
		decode: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			ev, seq, err := parseEventLine(raw)
			return ev, seq, nil, err
		},
		oracle: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			ev, seq, err := parseEventLineJSON(raw)
			return ev, seq, nil, err
		},
	},
	{
		name: "span", fields: spanFields,
		decode: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			sp, seq, err := parseSpanLine(raw)
			return sp, seq, nil, err
		},
		oracle: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			sp, seq, err := parseSpanLineJSON(raw)
			return sp, seq, nil, err
		},
	},
	{
		name: "decision", fields: decisionFields,
		decode: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			d, cands, seq, err := parseDecisionLine(raw, slices.Clone(candBase))
			return d, seq, d.Candidates(cands), err
		},
		oracle: func(raw []byte) (any, uint64, []RouteCandidate, error) {
			d, cands, seq, err := parseDecisionLineJSON(raw, slices.Clone(candBase))
			return d, seq, d.Candidates(cands), err
		},
	},
}

// checkRecordLine runs line through f's decoder and its reference and
// reports whether the decoder accepted it, and how the two disagree: the
// decoder must reject what the reference rejects and a repeated known
// key, must accept everything else, and must return the same record, seq
// and candidates.
func checkRecordLine(f *recordFormat, line []byte) (accepted bool, err error) {
	got, gotSeq, gotCands, gotErr := f.decode(line)
	want, wantSeq, wantCands, wantErr := f.oracle(line)
	switch {
	case wantErr != nil:
		if gotErr == nil {
			return true, fmt.Errorf("reference rejects (%v), decoder accepts %+v", wantErr, got)
		}
	case repeatsKnownKey(line, f.fields):
		if gotErr == nil {
			return true, errors.New("decoder accepts a repeated known key")
		}
	case gotErr != nil:
		return false, fmt.Errorf("decoder rejects (%v) what the reference accepts", gotErr)
	case got != want || gotSeq != wantSeq || !slices.Equal(gotCands, wantCands):
		return true, fmt.Errorf("records differ:\n got seq %d %+v %v\nwant seq %d %+v %v", gotSeq, got, gotCands, wantSeq, want, wantCands)
	}
	return gotErr == nil, nil
}

// repeatsKnownKey reports whether a valid JSON object line has two members
// whose keys match one of names, matched as encoding/json matches struct
// fields.
func repeatsKnownKey(line []byte, names []string) bool {
	seen := uint64(0)
	for _, m := range splitMembers(line) {
		key := m.key[1 : len(m.key)-1]
		if strings.ContainsFunc(key, func(r rune) bool { return r == '\\' || r >= utf8.RuneSelf }) {
			if err := json.Unmarshal([]byte(m.key), &key); err != nil {
				return false
			}
		}
		match := slices.Index(names, key)
		for i, name := range names {
			if match < 0 && strings.EqualFold(key, name) {
				match = i
			}
		}
		if match >= 0 {
			if seen&(1<<match) != 0 {
				return true
			}
			seen |= 1 << match
		}
	}
	return false
}

// recordGen draws records the writers represent exactly, so a writer's
// line must decode back to the record it was written from, and mutates
// record lines.
type recordGen struct{ rng *rand.Rand }

func (g recordGen) pick(n int) int { return g.rng.Intn(n) }
func (g recordGen) flag() bool     { return g.pick(2) == 0 }

// str is mostly a plain word; one draw in eight mixes characters the
// writer escapes with multi-byte runes.
func (g recordGen) str() string {
	words := [...]string{"", "chat", "batch", "t1.engage", "silent-failure", "row.util > 1", "breaker-breach", "session-affinity"}
	if g.pick(8) > 0 {
		return words[g.pick(len(words))]
	}
	runes := []rune("a\"\\\n\t\x01\x1f\x7f/<é€😀\u2028\ufffd")
	var b strings.Builder
	for n := g.pick(8); n >= 0; n-- {
		b.WriteRune(runes[g.pick(len(runes))])
	}
	return b.String()
}

func (g recordGen) f64() float64 {
	switch g.pick(7) {
	case 0:
		return 0
	case 1:
		return float64(g.pick(4000))
	case 2:
		return g.rng.Float64()
	case 3:
		return math.Ldexp(g.rng.Float64(), g.pick(200)-100)
	case 4:
		return [...]float64{math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1e21, 1e-7, 0.1}[g.pick(6)]
	default:
		return g.rng.NormFloat64() * 1e3
	}
}

// int draws a bits-wide signed integer: zero, small, an extreme, or uniform.
func (g recordGen) int(bits uint) int64 {
	switch g.pick(4) {
	case 0:
		return 0
	case 1:
		return int64(g.pick(100) - 10)
	case 2:
		return [...]int64{1<<(bits-1) - 1, -1 << (bits - 1)}[g.pick(2)]
	default:
		return int64(g.rng.Uint64()) >> (64 - bits)
	}
}

func (g recordGen) seq() uint64 {
	return [...]uint64{0, 1, uint64(g.pick(1 << 20)), g.rng.Uint64(), math.MaxUint64}[g.pick(5)]
}

// micros draws a whole number of microseconds that fits a Duration.
func (g recordGen) micros() time.Duration { return time.Duration(g.int(54)) * time.Microsecond }

// server draws a node index or -1: the writers omit negative ones.
func (g recordGen) server() int32 {
	if g.pick(4) == 0 {
		return -1
	}
	return int32(g.int(32)) & math.MaxInt32
}

func (g recordGen) event() Event {
	ev := Event{
		At: g.micros(), Kind: Kind(1 + g.pick(len(kindNames)-1)),
		Server: g.server(), Pool: PoolNone + int8(g.pick(3)),
	}
	if g.flag() {
		ev.MHz = g.f64()
	}
	if g.flag() {
		ev.Value = g.f64()
	}
	ev.Reason, ev.Label = g.str(), g.str()
	return ev
}

func (g recordGen) span() Span {
	sp := Span{
		Req: g.int(64), ID: int32(g.int(32)), Parent: int32(g.int(32)),
		Kind: SpanKind(1 + g.pick(len(spanKindNames)-1)), Start: g.micros(), End: g.micros(),
		Server: g.server(), Pool: PoolNone + int8(g.pick(3)), Class: g.str(),
		Tokens: int32(g.int(32)), Recompute: g.flag(), Preempts: int32(g.int(32)),
		EnergyJ: g.f64(), CapSec: g.f64(), CapJ: g.f64(), TTFTSec: -1, Reason: g.str(),
		Retry: int32(g.int(32)), Session: g.int(64), Turn: int32(g.int(32)),
	}
	if sp.Kind == SpanRequest {
		sp.TTFTSec = g.f64()
	}
	return sp
}

// decision draws a tick, or a route with its candidates (EpOff 0).
func (g recordGen) decision() (Decision, []RouteCandidate) {
	d := Decision{At: g.micros()}
	if g.flag() {
		d.Kind, d.TrueUtil, d.Delivered = DecTick, g.f64(), g.flag()
		if d.Delivered {
			d.Reading = g.f64()
		}
		d.Lost, d.Down, d.Missed, d.Reset = g.flag(), g.flag(), g.flag(), g.flag()
		d.Braked, d.BrakePending, d.Watchdog, d.FailSafe = g.flag(), g.flag(), g.flag(), g.flag()
		d.Stage, d.LPDesiredMHz, d.HPDesiredMHz = int8(g.int(8)), g.f64(), g.f64()
		d.LPBusy, d.HPBusy, d.LPWatts, d.HPWatts = int32(g.int(32)), int32(g.int(32)), g.f64(), g.f64()
		return d, nil
	}
	d.Kind, d.ReqID, d.Class, d.Pri = DecRoute, g.int(64), g.str(), int8(g.int(8))
	d.Retry, d.Session, d.Prefix, d.Chosen = int32(g.int(32)), g.int(64), int32(g.int(32)), int32(g.int(32))
	cands := make([]RouteCandidate, g.pick(5))
	for i := range cands {
		cands[i] = RouteCandidate{Server: int32(g.int(32)), Load: int32(g.int(32)), KVFrac: g.f64(), CappedMHz: g.f64()}
	}
	d.EpLen = int32(len(cands))
	return d, cands
}

// record draws a record of format i and a seq, written as a record line
// by its writer, and the record its decoders must return for that line.
func (g recordGen) record(i int) (line []byte, want any, seq uint64, wantCands []RouteCandidate) {
	seq = g.seq()
	switch recordFormats[i].name {
	case "event":
		ev := g.event()
		return appendRecord(nil, seq, ev, appendEventJSON), ev, seq, nil
	case "span":
		sp := g.span()
		return appendRecord(nil, seq, sp, appendSpanJSON), sp, seq, nil
	}
	d, cands := g.decision()
	line = appendRecord(nil, seq, d, func(b []byte, d Decision) []byte { return appendDecisionJSON(b, d, cands) })
	if d.Kind == DecRoute {
		d.EpOff = int32(len(candBase))
		wantCands = cands
	}
	return line, d, seq, wantCands
}

// member is one member of a record line, its key and value as JSON text.
type member struct{ key, value string }

// splitMembers splits a valid JSON object line into its members.
func splitMembers(line []byte) []member {
	var ms []member
	depth, start, colon := 0, 0, 0
	inString, escaped := false, false
	for i, c := range line {
		switch {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
			if depth == 1 {
				start = i + 1
			}
		case depth == 1 && c == ':' && colon < start:
			colon = i
		case depth == 1 && (c == ',' || c == '}'):
			if colon > start {
				ms = append(ms, member{
					string(bytes.TrimSpace(line[start:colon])),
					string(bytes.TrimSpace(line[colon+1 : i])),
				})
			}
			start = i + 1
			if c == '}' {
				depth--
			}
		case c == '}' || c == ']':
			depth--
		}
	}
	return ms
}

var (
	// trickyStrings are JSON string literals, valid and not: escapes,
	// surrogates paired and lone, raw and invalid UTF-8, pool and kind
	// names plain and escaped.
	trickyStrings = []string{
		`""`, `"low"`, `"high"`, `"lo\u0077"`, `"LOW"`, `"\"\\\/\b\f\n\r\t"`, `"\u00e9\u20ac"`,
		`"\ud83d\ude00"`, `"\ud800"`, `"\udc00"`, `"\ud800\u0041"`, `"\ud800\ud800"`, `"\uDBFF\uDFFF"`,
		`"\udc00\ud800x"`, "\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"\xe2\x82\"", "\"é€😀\"", "\"\xef\xbf\xbd\"",
		`"\u0000"`, "\"\x7f\"", "\"a\x01\"", `"\x"`, `"\u12"`, `"\u12g4"`, `"\'"`, `"abc`, `"\`,
		`"cap.apply"`, `"cap\u002eapply"`, `"request"`, `"prefill"`, `"tick"`, `"route"`, `"r\u006fute"`,
		`"none"`, `"unknown"`, `"Tick"`,
	}
	// trickyNumbers are number-like literals, valid JSON and not, with each
	// integer width's bounds and the values one past them.
	trickyNumbers = []string{
		"0", "-0", "1.5", "1e3", "1E3", "1e+3", "1e-3", "-1", "1e400", "-1e400", "1e-400", "01", "-01",
		"00", "0.0", "-0.0", "1.", ".5", "-", "+1", "1e", "1e+", "0x10", "1_0", "Infinity", "NaN",
		"4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308", "123456789012345678901234567890123456789",
		"127", "128", "-128", "-129", "2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616",
	}
	// trickyEps are "eps" values: well-formed, wrong-length, null and
	// mistyped entries and elements.
	trickyEps = []string{
		`null`, `[]`, `[[]]`, `[null]`, `[[1,2,3]]`, `[[1,2,3,4,5]]`, `[[1,null,3,4]]`, `[[1,2,3,4],null]`,
		`[["a",2,3,4]]`, `[[1,2,3,4]`, `[[1e400,2,3,4]]`, `[[3e9,-3e9,0.5,1]]`, `[[1.7,-2.5,0.5,1]]`,
		`[[[1],2,3,4]]`, `{}`, `[1,2,3,4]`, `[[1,2,3,4],[5,6,7,8]]`, ` [ [ 1 , 2 , 3 , 4 ] ] `, `[[1,2,3,4],]`,
		`[[1,2,3,4]],`, `"eps"`,
	}
)

// jsonValue draws any JSON value, nested at most depth deep, with known
// member names inside objects, which must not count as members.
func (g recordGen) jsonValue(depth int) string {
	switch n := g.pick(7); {
	case depth > 0 && n < 2:
		open, close := "[", "]"
		if n == 1 {
			open, close = "{", "}"
		}
		parts := make([]string, g.pick(4))
		for i := range parts {
			parts[i] = g.jsonValue(depth - 1)
			if n == 1 {
				parts[i] = g.key() + ":" + parts[i]
			}
		}
		return open + strings.Join(parts, ",") + close
	case n == 2:
		return trickyStrings[g.pick(len(trickyStrings))]
	case n == 3:
		return trickyNumbers[g.pick(len(trickyNumbers))]
	default:
		return [...]string{"true", "false", "null"}[g.pick(3)]
	}
}

// key draws a member key, known to some format or not.
func (g recordGen) key() string {
	if g.flag() {
		names := [...][]string{eventFields, spanFields, decisionFields}[g.pick(3)]
		return `"` + names[g.pick(len(names))] + `"`
	}
	return [...]string{`""`, `"x_extra"`, `"kindx"`, `"seq2"`, `"\u00e9"`, "\"\xff\"", `"seqq"`, "\"\u017fseqq\""}[g.pick(8)]
}

// foldKey rewrites a plain key so it still matches its name under
// bytes.EqualFold: letters change case, s and k become the non-ASCII runes
// that fold to them, and characters become \u escapes.
func (g recordGen) foldKey(key string) string {
	var b strings.Builder
	for _, c := range key {
		switch {
		case c == '"':
			b.WriteRune(c)
		case c == 's' && g.pick(3) == 0:
			b.WriteString([...]string{"\u017f", `\u017f`, "S"}[g.pick(3)])
		case c == 'k' && g.pick(3) == 0:
			b.WriteString([...]string{"\u212a", `\u212a`, "K"}[g.pick(3)])
		case g.pick(4) == 0:
			fmt.Fprintf(&b, `\u%04x`, c)
		case g.flag():
			b.WriteString(strings.ToUpper(string(c)))
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escape re-encodes a JSON string literal with random characters as \u
// escapes, so it decodes to the same string.
func (g recordGen) escape(lit string) string {
	var s string
	if json.Unmarshal([]byte(lit), &s) != nil {
		return lit
	}
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\' || r < ' ' || g.flag():
			if r1, r2 := utf16.EncodeRune(r); r1 != '\uFFFD' {
				fmt.Fprintf(&b, `\u%04x\u%04x`, r1, r2)
			} else {
				fmt.Fprintf(&b, `\u%04X`, r)
			}
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// mutate applies one to three member-level mutations to a writer's line,
// then renders it, sometimes with JSON whitespace between all tokens, and
// sometimes appends bytes, truncates it or overwrites one byte.
func (g recordGen) mutate(line []byte, fields []string) []byte {
	ms := splitMembers(line)
	spaced := false
	tail := ""
	at := func() int { return g.pick(len(ms)) }
	insert := func(m member) {
		i := g.pick(len(ms) + 1)
		ms = slices.Insert(ms, i, m)
	}
	for n := 1 + g.pick(3); n > 0; n-- {
		switch g.pick(13) {
		case 0:
			g.rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		case 1:
			spaced = true
		case 2:
			insert(member{g.key(), g.jsonValue(3)})
		case 3:
			i := at()
			ms[i].key = g.foldKey(ms[i].key)
		case 4:
			ms[at()].value = "null"
		case 5:
			m := ms[at()]
			if g.flag() {
				m.key = g.foldKey(m.key)
			}
			if g.flag() {
				m.value = g.jsonValue(1)
			}
			insert(m)
		case 6:
			ms[at()].value = trickyStrings[g.pick(len(trickyStrings))]
		case 7:
			i := at()
			ms[i].value = g.escape(ms[i].value)
		case 8:
			ms[at()].value = trickyNumbers[g.pick(len(trickyNumbers))]
		case 9:
			i := at()
			if ms[i].key == `"eps"` || g.pick(4) == 0 {
				ms[i].value = trickyEps[g.pick(len(trickyEps))]
			}
		case 10:
			if len(ms) > 1 {
				i := at()
				ms = slices.Delete(ms, i, i+1)
			}
		case 11:
			insert(member{`"` + fields[g.pick(len(fields))] + `"`, g.jsonValue(1)})
		default:
			tail = [...]string{"x", "}", ",", " {}", "\x00", "null", "]", " \t", "\r\n"}[g.pick(9)]
		}
	}
	ws := func() string {
		if !spaced {
			return ""
		}
		return [...]string{"", " ", "\t", "\r", "\n", " \t "}[g.pick(6)]
	}
	var b strings.Builder
	b.WriteString(ws() + "{")
	for i, m := range ms {
		if i > 0 {
			b.WriteString(ws() + ",")
		}
		b.WriteString(ws() + m.key + ws() + ":" + ws() + m.value)
	}
	b.WriteString(ws() + "}" + ws() + tail)
	out := []byte(b.String())
	switch g.pick(10) {
	case 0:
		out = out[:g.pick(len(out))]
	case 1:
		out[g.pick(len(out))] = byte(g.pick(256))
	}
	return out
}

// TestRecordDecodersMatchEncodingJSON checks the record decoder against
// the encoding/json reference on writer output of seeded random records,
// on mutations of it, on hand-picked edge cases and on every record line
// of the committed fixtures.
func TestRecordDecodersMatchEncodingJSON(t *testing.T) {
	const records = 100_002
	const mutations = 2
	g := recordGen{rand.New(rand.NewSource(15))}
	var accepted, rejected int
	for n := 0; n < records; n++ {
		i := n % len(recordFormats)
		f := &recordFormats[i]
		line, want, wantSeq, wantCands := g.record(i)
		ok, err := checkRecordLine(f, line)
		if err != nil || !ok {
			t.Fatalf("%s writer output %s: accepted %v, %v", f.name, line, ok, err)
		}
		if got, gotSeq, gotCands, _ := f.decode(line); got != want || gotSeq != wantSeq || !slices.Equal(gotCands, wantCands) {
			t.Fatalf("%s did not round-trip: %s\n got seq %d %+v %v\nwant seq %d %+v %v", f.name, line, gotSeq, got, gotCands, wantSeq, want, wantCands)
		}
		for m := 0; m < mutations; m++ {
			mut := g.mutate(line, f.fields)
			ok, err := checkRecordLine(f, mut)
			if err != nil {
				t.Fatalf("%s line %q (from %s): %v", f.name, mut, line, err)
			}
			if ok {
				accepted++
			} else {
				rejected++
			}
		}
	}
	// The mutations must keep exercising both outcomes.
	if total := accepted + rejected; accepted < total/5 || rejected < total/5 {
		t.Errorf("mutated lines: %d accepted, %d rejected", accepted, rejected)
	}

	// Edge cases for every format: non-objects, empty objects, nesting at
	// and past encoding/json's depth limit.
	kinds := map[string]string{"event": `"cap.apply"`, "span": `"request"`, "decision": `"tick"`}
	for i := range recordFormats {
		f := &recordFormats[i]
		kind := `{"kind":` + kinds[f.name]
		edge := []string{
			"", " ", "null", "[]", "1", `"s"`, "true", "{", "}", "{}", kind + "}", kind + ",}", kind + " }x",
			kind + `,"kind":` + kinds[f.name] + "}", kind + `,"KIND":null}`, kind + `,"x":1,"x":2}`,
			kind + `,"x":{"kind":1,"kind":2}}`, `{"kind":null}`, kind + `,"eps":[[1,2,3,4]],"kind":"route"}`,
			kind + `,"chosen":5,"class":"c","lost":true,"util":0}`, kind + `,"util":null}`,
		}
		for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth} {
			edge = append(edge,
				kind+`,"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+"}",
				kind+`,"x":`+strings.Repeat(`{"a":`, depth)+"1"+strings.Repeat("}", depth)+"}")
		}
		for _, line := range edge {
			if _, err := checkRecordLine(f, []byte(line)); err != nil {
				t.Errorf("%s %.80q: %v", f.name, line, err)
			}
		}
		deep := kind + `,"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + "}"
		if ok, _ := checkRecordLine(f, []byte(deep)); !ok {
			t.Errorf("%s: nesting at the depth limit rejected", f.name)
		}
	}

	// Every record line of the committed fixtures, each log's header line
	// skipped.
	files, err := filepath.Glob("../../cmd/polca-*/testdata/*.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f := &recordFormats[0]
		switch base := filepath.Base(file); {
		case strings.HasPrefix(base, "spans"):
			f = &recordFormats[1]
		case strings.HasPrefix(base, "decisions"):
			f = &recordFormats[2]
		}
		header := true
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			if header {
				header = false
				continue
			}
			lines++
			if ok, err := checkRecordLine(f, line); !ok || err != nil {
				t.Errorf("%s: %s line %s: accepted %v, %v", file, f.name, line, ok, err)
			}
		}
		if lines == 0 {
			t.Errorf("%s: no record lines", file)
		}
	}
}

// FuzzRecordDecoders checks the record decoder against the encoding/json
// reference, for all three formats, on lines drawn by the fuzzer. The
// corpus seeds are writer output and mutations of it.
func FuzzRecordDecoders(f *testing.F) {
	g := recordGen{rand.New(rand.NewSource(1))}
	for n := 0; n < 24; n++ {
		i := n % len(recordFormats)
		line, _, _, _ := g.record(i)
		f.Add(line)
		f.Add(g.mutate(line, recordFormats[i].fields))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		for i := range recordFormats {
			if _, err := checkRecordLine(&recordFormats[i], line); err != nil {
				t.Fatalf("%s %q: %v", recordFormats[i].name, line, err)
			}
		}
	})
}

// BenchmarkScanJSONL measures the read path: one op scans a fixed log of
// 1,000 events, 200 spans and 100 decisions, written by the three writers
// from seeded random records, through ScanEvents, ScanSpans and
// ScanDecisions.
func BenchmarkScanJSONL(b *testing.B) {
	g := recordGen{rand.New(rand.NewSource(1))}
	tr, st, dr := NewTracer(), NewSpanTracer(), NewDecisionRecorder()
	for i := 0; i < 1000; i++ {
		tr.Emit(g.event())
	}
	for i := 0; i < 200; i++ {
		st.Emit(g.span())
	}
	for i := 0; i < 100; i++ {
		if d, cands := g.decision(); d.Kind == DecTick {
			dr.RecordTick(d)
		} else {
			dr.RecordRoute(d, cands)
		}
	}
	var events, spans, decisions bytes.Buffer
	if err := errors.Join(tr.WriteJSONL(&events), st.WriteJSONL(&spans), dr.WriteJSONL(&decisions)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(events.Len() + spans.Len() + decisions.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_, err := ScanDecisions(bytes.NewReader(decisions.Bytes()), nil, func(Decision, []RouteCandidate) error { n++; return nil })
		err = errors.Join(err,
			ScanEvents(bytes.NewReader(events.Bytes()), nil, func(Event) error { n++; return nil }),
			ScanSpans(bytes.NewReader(spans.Bytes()), nil, func(Span) error { n++; return nil }))
		if err != nil || n != 1300 {
			b.Fatalf("scanned %d records: %v", n, err)
		}
	}
}

// logScanners runs each log format's scanner over a file and counts the
// records it delivers.
var logScanners = []struct {
	name string
	scan func(data []byte) (int, error)
}{
	{"events", func(data []byte) (n int, err error) {
		return n, ScanEvents(bytes.NewReader(data), nil, func(Event) error { n++; return nil })
	}},
	{"spans", func(data []byte) (n int, err error) {
		return n, ScanSpans(bytes.NewReader(data), nil, func(Span) error { n++; return nil })
	}},
	{"decisions", func(data []byte) (n int, err error) {
		_, err = ScanDecisions(bytes.NewReader(data), nil, func(Decision, []RouteCandidate) error { n++; return nil })
		return n, err
	}},
}

// sampleLogs writes one log of n seeded random records per format, keyed
// by the logScanners name that reads it.
func sampleLogs(tb testing.TB, n int) map[string][]byte {
	g := recordGen{rand.New(rand.NewSource(2))}
	tr, st, dr := NewTracer(), NewSpanTracer(), NewDecisionRecorder()
	for i := 0; i < n; i++ {
		tr.Emit(g.event())
		st.Emit(g.span())
		if d, cands := g.decision(); d.Kind == DecTick {
			dr.RecordTick(d)
		} else {
			dr.RecordRoute(d, cands)
		}
	}
	var events, spans, decisions bytes.Buffer
	if err := errors.Join(tr.WriteJSONL(&events), st.WriteJSONL(&spans), dr.WriteJSONL(&decisions)); err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{"events": events.Bytes(), "spans": spans.Bytes(), "decisions": decisions.Bytes()}
}

// TestScanLogEnvelope checks the envelope every scanner enforces: each
// reads its own writer's log back whole, and rejects another format's log
// at its header, a log without a header, and logs whose record lines were
// dropped, duplicated or swapped, so the first record or a later one
// carries the wrong seq.
func TestScanLogEnvelope(t *testing.T) {
	const records = 4
	logs := sampleLogs(t, records)
	for _, s := range logScanners {
		lines := strings.SplitAfter(string(logs[s.name]), "\n")
		hdr, recs := lines[0], lines[1:records+1]
		if n, err := s.scan(logs[s.name]); err != nil || n != records {
			t.Fatalf("%s: own log read %d of %d records: %v", s.name, n, records, err)
		}
		cases := []struct{ name, log, wantErr string }{
			{"no header", strings.Join(recs, ""), "line 1: schema"},
			{"empty", "", "no header line"},
			{"first seq 2", hdr + strings.Join(recs[1:], ""), "line 2: sequence gap"},
			{"dropped", hdr + recs[0] + strings.Join(recs[2:], ""), "line 3: sequence gap"},
			{"duplicated", hdr + recs[0] + recs[0] + strings.Join(recs[1:], ""), "line 3: sequence regression"},
			{"swapped", hdr + recs[1] + recs[0] + strings.Join(recs[2:], ""), "line 2: sequence gap"},
		}
		for _, other := range logScanners {
			if other.name != s.name {
				cases = append(cases, struct{ name, log, wantErr string }{other.name + " log", string(logs[other.name]), "line 1: schema"})
			}
		}
		for _, c := range cases {
			_, err := s.scan([]byte(c.log))
			if err == nil || !strings.HasPrefix(err.Error(), s.name) || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s, %s: err = %v, want %q", s.name, c.name, err, c.wantErr)
			}
		}
	}
}

// recordSeqs returns the seq of every record line of a file the scanners
// split as they do (blank and `#` lines skipped, the first other line the
// header), read with encoding/json.
func recordSeqs(data []byte) ([]uint64, error) {
	var seqs []uint64
	header := true
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if header {
			header = false
			continue
		}
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		seqs = append(seqs, rec.Seq)
	}
	return seqs, nil
}

// FuzzScanLog runs the three scanners over arbitrary files: none may panic,
// and a file one accepts must hold exactly as many record lines as it
// delivered, numbered 1, 2, 3, … . The corpus seeds are each writer's
// output.
func FuzzScanLog(f *testing.F) {
	for _, s := range logScanners {
		f.Add(sampleLogs(f, 3)[s.name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range logScanners {
			n, err := s.scan(data)
			if err != nil {
				continue
			}
			seqs, err := recordSeqs(data)
			if err != nil {
				t.Fatalf("%s accepted %q, whose record lines are not JSON: %v", s.name, data, err)
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("%s accepted %q with seqs %v", s.name, data, seqs)
				}
			}
			if len(seqs) != n {
				t.Fatalf("%s accepted %q: %d record lines, %d records delivered", s.name, data, len(seqs), n)
			}
		}
	})
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// appendJSONString appends s as a JSON string literal. Event strings are
// short static reasons/labels, so only the escapes that can actually occur
// plus the mandatory control-character range are handled.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			b = append(b, fmt.Sprintf("\\u%04x", r)...)
		default:
			b = utf8AppendRune(b, r)
		}
	}
	return append(b, '"')
}

func utf8AppendRune(b []byte, r rune) []byte {
	var tmp [4]byte
	n := copy(tmp[:], string(r))
	return append(b, tmp[:n]...)
}

// appendEventJSON renders one event as a single JSON object. Fields are
// emitted in a fixed order and zero-valued optional fields are omitted, so
// the JSONL output is deterministic and diff-friendly.
func appendEventJSON(b []byte, ev Event) []byte {
	b = append(b, '{')
	if ev.Seq != 0 {
		b = append(b, `"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		b = append(b, ',')
	}
	b = append(b, `"t_us":`...)
	b = strconv.AppendInt(b, int64(ev.At/time.Microsecond), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, ev.Kind.String())
	if ev.Server >= 0 {
		b = append(b, `,"server":`...)
		b = strconv.AppendInt(b, int64(ev.Server), 10)
	}
	if name := PoolName(ev.Pool); name != "" {
		b = append(b, `,"pool":`...)
		b = appendJSONString(b, name)
	}
	if ev.MHz != 0 {
		b = append(b, `,"mhz":`...)
		b = strconv.AppendFloat(b, ev.MHz, 'g', -1, 64)
	}
	if ev.Value != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, ev.Value, 'g', -1, 64)
	}
	if ev.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, ev.Reason)
	}
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, ev.Label)
	}
	return append(b, '}')
}

// WriteJSONL writes the tracer's events, one JSON object per line, in
// emission order. The encoding is hand-rolled (fixed field order, omitted
// zero fields) so identical runs produce identical bytes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)
	for _, ev := range t.Events() {
		buf = appendEventJSON(buf[:0], ev)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeTraceRow is one emitted trace-event object in the Chrome
// trace-event format (the "JSON array format" Perfetto and chrome://tracing
// both load).
type chromeTraceRow struct {
	name string
	ph   string // "X" duration, "i" instant, "M" metadata
	ts   int64  // microseconds
	dur  int64  // microseconds, ph "X" only
	tid  int32
	args string // pre-rendered JSON object body, may be ""
}

func (r chromeTraceRow) append(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, r.name)
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, r.ph)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(r.tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, r.ts, 10)
	if r.ph == "X" {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, r.dur, 10)
	}
	if r.ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if r.args != "" {
		b = append(b, `,"args":{`...)
		b = append(b, r.args...)
		b = append(b, '}')
	}
	return append(b, '}')
}

// Track ids: row-level events live on tid 0; server s lives on tid s+1.
const rowTrack = 0

func serverTrack(server int32) int32 { return server + 1 }

// WriteChromeTrace renders the tracer's events in the Chrome trace-event
// JSON format: one thread ("track") for row-level events and one per
// server, with capping intervals (cap.apply → cap.release) and the power
// brake (brake.engage → brake.release) as duration spans and everything
// else as instants. The output loads directly in chrome://tracing and
// ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	var rows []chromeTraceRow
	maxServer := int32(-1)
	lastTS := int64(0)

	type openSpan struct {
		startUS int64
		name    string
		args    string
	}
	capOpen := map[int32]openSpan{} // server -> open capping span
	var brakeOpen *openSpan         // row-level brake span

	for _, ev := range events {
		ts := int64(ev.At / time.Microsecond)
		if ts > lastTS {
			lastTS = ts
		}
		if ev.Server > maxServer {
			maxServer = ev.Server
		}
		switch ev.Kind {
		case KindCapApply:
			// A re-lock at a new frequency closes the previous span.
			if sp, ok := capOpen[ev.Server]; ok {
				rows = append(rows, chromeTraceRow{
					name: sp.name, ph: "X", ts: sp.startUS, dur: ts - sp.startUS,
					tid: serverTrack(ev.Server), args: sp.args,
				})
			}
			capOpen[ev.Server] = openSpan{
				startUS: ts,
				name:    fmt.Sprintf("cap %.0f MHz", ev.MHz),
				args:    `"mhz":` + strconv.FormatFloat(ev.MHz, 'g', -1, 64) + `,"pool":"` + PoolName(ev.Pool) + `"`,
			}
		case KindCapRelease:
			if sp, ok := capOpen[ev.Server]; ok {
				rows = append(rows, chromeTraceRow{
					name: sp.name, ph: "X", ts: sp.startUS, dur: ts - sp.startUS,
					tid: serverTrack(ev.Server), args: sp.args,
				})
				delete(capOpen, ev.Server)
			}
		case KindBrakeEngage:
			brakeOpen = &openSpan{startUS: ts, name: "power brake"}
		case KindBrakeRelease:
			if brakeOpen != nil {
				rows = append(rows, chromeTraceRow{
					name: brakeOpen.name, ph: "X", ts: brakeOpen.startUS,
					dur: ts - brakeOpen.startUS, tid: rowTrack,
				})
				brakeOpen = nil
			}
		case KindArrive, KindComplete, KindDrop:
			// Request-level instants flood the UI at full-run scale; they
			// remain in the JSONL export but are skipped here.
		default:
			tid := int32(rowTrack)
			if ev.Server >= 0 {
				tid = serverTrack(ev.Server)
			}
			args := ""
			if ev.Reason != "" {
				args = `"reason":` + string(appendJSONString(nil, ev.Reason))
			}
			if ev.Value != 0 {
				if args != "" {
					args += ","
				}
				args += `"value":` + strconv.FormatFloat(ev.Value, 'g', -1, 64)
			}
			rows = append(rows, chromeTraceRow{
				name: ev.Kind.String(), ph: "i", ts: ts, tid: tid, args: args,
			})
		}
	}
	// Close dangling spans at the last observed timestamp so locks still
	// held at end of run are visible, in server order so the output is
	// deterministic.
	open := make([]int32, 0, len(capOpen))
	for server := range capOpen {
		open = append(open, server)
	}
	slices.Sort(open)
	for _, server := range open {
		sp := capOpen[server]
		rows = append(rows, chromeTraceRow{
			name: sp.name, ph: "X", ts: sp.startUS, dur: lastTS - sp.startUS,
			tid: serverTrack(server), args: sp.args,
		})
	}
	if brakeOpen != nil {
		rows = append(rows, chromeTraceRow{
			name: brakeOpen.name, ph: "X", ts: brakeOpen.startUS,
			dur: lastTS - brakeOpen.startUS, tid: rowTrack,
		})
	}
	// Name the tracks.
	meta := []chromeTraceRow{{
		name: "thread_name", ph: "M", tid: rowTrack, args: `"name":"row"`,
	}}
	for s := int32(0); s <= maxServer; s++ {
		meta = append(meta, chromeTraceRow{
			name: "thread_name", ph: "M", tid: serverTrack(s),
			args: `"name":` + string(appendJSONString(nil, fmt.Sprintf("server %d", s))),
		})
	}

	return writeChromeRows(w, meta, rows)
}

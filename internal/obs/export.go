package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
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
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendEventJSON appends an event's record members, each led by a comma.
// Members come in a fixed order and zero-valued optional ones are omitted,
// so the JSONL output is deterministic and diff-friendly.
func appendEventJSON(b []byte, ev Event) []byte {
	b = append(b, `,"t_us":`...)
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
	return b
}

// WriteJSONL writes the tracer's events as an event log (see writeLog),
// one record per event in emission order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeLog(w, logHeader{eventLog.schema}, t.Events(), appendEventJSON)
}

// TraceRow is one trace-event object of a Chrome trace-event JSON document
// (the "JSON array format" Perfetto and chrome://tracing both load). Every
// trace export of the repository writes its rows with WriteChromeRows.
type TraceRow struct {
	Name string
	Ph   string // "X" duration, "i" instant, "C" counter, "M" metadata
	TS   int64  // microseconds
	Dur  int64  // microseconds, ph "X" only
	// Proc is the row's process index; pids count from 1, so the row's
	// pid is Proc+1.
	Proc int32
	TID  int32
	Args string // pre-rendered JSON object body, may be ""
}

// ProcessName returns the metadata row naming process proc.
func ProcessName(proc int32, name string) TraceRow {
	return TraceRow{Name: "process_name", Ph: "M", Proc: proc, Args: `"name":` + string(appendJSONString(nil, name))}
}

// ThreadName returns the metadata row naming track tid of process proc.
func ThreadName(proc, tid int32, name string) TraceRow {
	return TraceRow{Name: "thread_name", Ph: "M", Proc: proc, TID: tid, Args: `"name":` + string(appendJSONString(nil, name))}
}

func (r TraceRow) append(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, r.Name)
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, r.Ph)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(r.Proc)+1, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(r.TID), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, r.TS, 10)
	if r.Ph == "X" {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, r.Dur, 10)
	}
	if r.Ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if r.Args != "" {
		b = append(b, `,"args":{`...)
		b = append(b, r.Args...)
		b = append(b, '}')
	}
	return append(b, '}')
}

// WriteChromeRows writes a Chrome trace-event JSON document: the
// track-naming metadata rows, then the trace rows. A bufio.Writer keeps
// its first write error and returns it from Flush, so only Flush is
// checked.
func WriteChromeRows(w io.Writer, meta, rows []TraceRow) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	buf := make([]byte, 0, 256)
	sep := ""
	for _, part := range [][]TraceRow{meta, rows} {
		for _, r := range part {
			buf = r.append(append(buf[:0], sep...))
			bw.Write(buf)
			sep = ",\n"
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
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
	var rows []TraceRow
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
				rows = append(rows, TraceRow{
					Name: sp.name, Ph: "X", TS: sp.startUS, Dur: ts - sp.startUS,
					TID: serverTrack(ev.Server), Args: sp.args,
				})
			}
			capOpen[ev.Server] = openSpan{
				startUS: ts,
				name:    fmt.Sprintf("cap %.0f MHz", ev.MHz),
				args:    `"mhz":` + strconv.FormatFloat(ev.MHz, 'g', -1, 64) + `,"pool":"` + PoolName(ev.Pool) + `"`,
			}
		case KindCapRelease:
			if sp, ok := capOpen[ev.Server]; ok {
				rows = append(rows, TraceRow{
					Name: sp.name, Ph: "X", TS: sp.startUS, Dur: ts - sp.startUS,
					TID: serverTrack(ev.Server), Args: sp.args,
				})
				delete(capOpen, ev.Server)
			}
		case KindBrakeEngage:
			brakeOpen = &openSpan{startUS: ts, name: "power brake"}
		case KindBrakeRelease:
			if brakeOpen != nil {
				rows = append(rows, TraceRow{
					Name: brakeOpen.name, Ph: "X", TS: brakeOpen.startUS,
					Dur: ts - brakeOpen.startUS, TID: rowTrack,
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
			rows = append(rows, TraceRow{
				Name: ev.Kind.String(), Ph: "i", TS: ts, TID: tid, Args: args,
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
		rows = append(rows, TraceRow{
			Name: sp.name, Ph: "X", TS: sp.startUS, Dur: lastTS - sp.startUS,
			TID: serverTrack(server), Args: sp.args,
		})
	}
	if brakeOpen != nil {
		rows = append(rows, TraceRow{
			Name: brakeOpen.name, Ph: "X", TS: brakeOpen.startUS,
			Dur: lastTS - brakeOpen.startUS, TID: rowTrack,
		})
	}
	// Name the tracks.
	meta := []TraceRow{ThreadName(0, rowTrack, "row")}
	for s := int32(0); s <= maxServer; s++ {
		meta = append(meta, ThreadName(0, serverTrack(s), fmt.Sprintf("server %d", s)))
	}
	return WriteChromeRows(w, meta, rows)
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SpanKind enumerates the node types of a request span tree. The serve
// path emits a depth-two tree per request:
//
//	request (root)
//	├── queue            waiting for admission (re-opened after preemption)
//	├── prefill[i]       one prompt-chunk iteration (Recompute after preempt)
//	├── decode[j]        a coalesced run of back-to-back decode iterations
//	└── preempt          instant: evicted from the batch under KV pressure
type SpanKind uint8

const (
	SpanNone SpanKind = iota
	// SpanRequest is the root span covering a request end to end, from
	// arrival to completion (or drop — Reason is set on drops). It carries
	// the request-level attributions: TTFTSec, Tokens (decoded), EnergyJ,
	// CapSec/CapJ, Preempts.
	SpanRequest
	// SpanQueue covers time spent waiting for batch admission, including
	// the requeue wait after a preemption.
	SpanQueue
	// SpanPrefill covers one prompt-chunk prefill iteration; Tokens is the
	// chunk size and Recompute marks chunks that re-run work lost to a
	// preemption.
	SpanPrefill
	// SpanDecode covers a run of consecutive decode iterations, coalesced
	// while they chain back-to-back so a 500-token generation yields one
	// span, not 500; Tokens is the number of tokens generated in the run.
	SpanDecode
	// SpanPreempt is a zero-duration marker at the instant a sequence was
	// evicted for recompute; Tokens is the KV tokens released.
	SpanPreempt
)

var spanKindNames = [...]string{
	SpanNone:    "none",
	SpanRequest: "request",
	SpanQueue:   "queue",
	SpanPrefill: "prefill",
	SpanDecode:  "decode",
	SpanPreempt: "preempt",
}

// String returns the span kind's wire name ("prefill").
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// ParseSpanKind maps a wire name back to its SpanKind.
func ParseSpanKind(s string) (SpanKind, bool) {
	for k, name := range spanKindNames {
		if name == s && k != int(SpanNone) {
			return SpanKind(k), true
		}
	}
	return SpanNone, false
}

// Span is one node of a request span tree: a flat value type like Event,
// so emitting costs only the tracer's amortized buffer growth. Spans are
// keyed by (Req, ID): Req is the workload request ID, ID numbers the spans
// within one request's tree (the root is always 1), Parent is the ID of
// the enclosing span (0 on the root).
//
// Attribute use by kind: Server/Pool/Class locate the request; Tokens is
// kind-specific (see SpanKind docs); EnergyJ is the GPU energy attributed
// to the span across the replica's tensor-parallel group; CapSec and CapJ
// are the extra seconds and extra (or, negative, saved) joules versus the
// DVFS-uncapped counterfactual of the same iterations; TTFTSec (root only)
// is the time to first token, or -1 when the request never produced one;
// Reason (root only) records why a request ended without completing.
type Span struct {
	Req       int64
	ID        int32
	Parent    int32
	Kind      SpanKind
	Start     time.Duration // simulated time
	End       time.Duration // simulated time
	Server    int32
	Pool      int8
	Class     string
	Tokens    int32
	Recompute bool
	Preempts  int32
	EnergyJ   float64
	CapSec    float64
	CapJ      float64
	TTFTSec   float64
	Reason    string
	// Retry is the failover attempt number of the request span's attempt
	// (0 = first admission); the analyzer uses it to fold multiple root
	// spans of one failed-over request into a single outcome.
	Retry int32
	// Session groups the root spans of one scenario multi-turn session
	// (0 = no session structure); Turn is the request's 1-based position
	// in it. Both are omitted from the wire format when zero, so legacy
	// traffic produces unchanged output.
	Session int64
	Turn    int32
}

// SpanTracer records request spans. Like Tracer, it is safe for concurrent
// use and a nil *SpanTracer is a valid disabled sink — Emit on nil is a
// single branch (see BenchmarkSpanTracerDisabled).
type SpanTracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanTracer returns an enabled span tracer.
func NewSpanTracer() *SpanTracer {
	return &SpanTracer{}
}

// Emit records a span. On a nil tracer it returns immediately; emitters
// that need per-sequence bookkeeping should additionally gate that work on
// a non-nil tracer so the disabled path allocates nothing.
func (t *SpanTracer) Emit(sp Span) {
	if t == nil {
		return
	}
	t.append(sp)
}

func (t *SpanTracer) append(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in emission order.
func (t *SpanTracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// appendSpanJSON appends a span's record members with fixed member order
// and omitted zero members, mirroring appendEventJSON.
func appendSpanJSON(b []byte, sp Span) []byte {
	b = append(b, `,"req":`...)
	b = strconv.AppendInt(b, sp.Req, 10)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(sp.ID), 10)
	if sp.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(sp.Parent), 10)
	}
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, sp.Kind.String())
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, int64(sp.Start/time.Microsecond), 10)
	b = append(b, `,"end_us":`...)
	b = strconv.AppendInt(b, int64(sp.End/time.Microsecond), 10)
	if sp.Server >= 0 {
		b = append(b, `,"server":`...)
		b = strconv.AppendInt(b, int64(sp.Server), 10)
	}
	if name := PoolName(sp.Pool); name != "" {
		b = append(b, `,"pool":`...)
		b = appendJSONString(b, name)
	}
	if sp.Class != "" {
		b = append(b, `,"class":`...)
		b = appendJSONString(b, sp.Class)
	}
	if sp.Tokens != 0 {
		b = append(b, `,"tokens":`...)
		b = strconv.AppendInt(b, int64(sp.Tokens), 10)
	}
	if sp.Recompute {
		b = append(b, `,"recompute":true`...)
	}
	if sp.Preempts != 0 {
		b = append(b, `,"preempts":`...)
		b = strconv.AppendInt(b, int64(sp.Preempts), 10)
	}
	if sp.EnergyJ != 0 {
		b = append(b, `,"energy_j":`...)
		b = strconv.AppendFloat(b, sp.EnergyJ, 'g', -1, 64)
	}
	if sp.CapSec != 0 {
		b = append(b, `,"cap_s":`...)
		b = strconv.AppendFloat(b, sp.CapSec, 'g', -1, 64)
	}
	if sp.CapJ != 0 {
		b = append(b, `,"cap_j":`...)
		b = strconv.AppendFloat(b, sp.CapJ, 'g', -1, 64)
	}
	if sp.Kind == SpanRequest {
		b = append(b, `,"ttft_s":`...)
		b = strconv.AppendFloat(b, sp.TTFTSec, 'g', -1, 64)
	}
	if sp.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, sp.Reason)
	}
	if sp.Retry != 0 {
		b = append(b, `,"retry":`...)
		b = strconv.AppendInt(b, int64(sp.Retry), 10)
	}
	if sp.Session != 0 {
		b = append(b, `,"session":`...)
		b = strconv.AppendInt(b, sp.Session, 10)
	}
	if sp.Turn != 0 {
		b = append(b, `,"turn":`...)
		b = strconv.AppendInt(b, int64(sp.Turn), 10)
	}
	return b
}

// sortedSpans returns the tracer's spans ordered by (Req, Retry, ID), so
// each admission attempt's tree is a contiguous block led by its root
// regardless of how emission interleaved across requests.
func (t *SpanTracer) sortedSpans() []Span {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Req != spans[j].Req {
			return spans[i].Req < spans[j].Req
		}
		if spans[i].Retry != spans[j].Retry {
			return spans[i].Retry < spans[j].Retry
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}

// WriteJSONL writes the spans as a span log (see writeLog), one record per
// span in sortedSpans order: each attempt's root comes before its
// children.
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeLog(w, logHeader{spanLog.schema}, t.sortedSpans(), appendSpanJSON)
}

// WriteChromeTrace renders the spans in the Chrome trace-event JSON format
// with one track per request, so a single request's queue → prefill →
// decode lifecycle reads left to right in ui.perfetto.dev. Tracks are
// ordered by request ID; preemptions render as instants.
func (t *SpanTracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.sortedSpans()
	tids := map[int64]int32{}
	var meta []TraceRow
	var rows []TraceRow
	for _, sp := range spans {
		tid, ok := tids[sp.Req]
		if !ok {
			tid = int32(len(tids))
			tids[sp.Req] = tid
			label := fmt.Sprintf("req %d", sp.Req)
			if sp.Class != "" {
				label += " (" + sp.Class + ")"
			}
			meta = append(meta, ThreadName(0, tid, label))
		}
		name := sp.Kind.String()
		if sp.Kind == SpanPrefill && sp.Recompute {
			name = "prefill (recompute)"
		}
		args := `"tokens":` + strconv.FormatInt(int64(sp.Tokens), 10)
		if sp.EnergyJ != 0 {
			args += `,"energy_j":` + strconv.FormatFloat(sp.EnergyJ, 'g', -1, 64)
		}
		if sp.CapSec != 0 {
			args += `,"cap_s":` + strconv.FormatFloat(sp.CapSec, 'g', -1, 64)
		}
		if sp.Kind == SpanRequest {
			args += `,"ttft_s":` + strconv.FormatFloat(sp.TTFTSec, 'g', -1, 64)
			if sp.Reason != "" {
				args += `,"reason":` + string(appendJSONString(nil, sp.Reason))
			}
		}
		ts := int64(sp.Start / time.Microsecond)
		if sp.Kind == SpanPreempt {
			rows = append(rows, TraceRow{Name: name, Ph: "i", TS: ts, TID: tid, Args: args})
			continue
		}
		rows = append(rows, TraceRow{
			Name: name, Ph: "X", TS: ts,
			Dur: int64((sp.End - sp.Start) / time.Microsecond),
			TID: tid, Args: args,
		})
	}
	return WriteChromeRows(w, meta, rows)
}

// ScanSpans streams a span log written by WriteJSONL: one callback per
// span, in file order, without materializing the file or the span slice.
// `#` provenance lines go to comment (when non-nil). The envelope's checks
// apply (see scanLog), so a file missing, repeating or reordering a line
// fails with the offending line number, and each attempt's root arrives
// before its children.
func ScanSpans(r io.Reader, comment func(line string), fn func(sp Span) error) error {
	return scanLog(r, spanLog, nil, comment, parseSpanLine, fn)
}

// RequestRoots folds one request's root spans across its admission
// attempts. The failover path emits one root per admission; the
// highest-Retry root is the request's outcome, and the energy, cap
// attribution and tokens of the attempts it superseded accumulate beside
// it, since a failed attempt's work was still performed.
type RequestRoots struct {
	// Root is the outcome attempt; Superseded counts the earlier ones.
	Root       Span
	Superseded int

	has bool
	// Totals of the superseded attempts.
	energyJ, capSec, capJ float64
	tokens                int32
}

// Add folds one root span of the request. Two roots for the same attempt
// is an error.
func (r *RequestRoots) Add(sp Span) error {
	if r.has {
		switch {
		case sp.Retry == r.Root.Retry:
			return fmt.Errorf("request %d has two root spans", sp.Req)
		case sp.Retry < r.Root.Retry:
			r.supersede(sp)
			return nil
		}
		r.supersede(r.Root)
	}
	r.Root, r.has = sp, true
	return nil
}

func (r *RequestRoots) supersede(sp Span) {
	r.Superseded++
	r.energyJ += sp.EnergyJ
	r.capSec += sp.CapSec
	r.capJ += sp.CapJ
	r.tokens += sp.Tokens
}

// EnergyJ, CapSec, CapJ and Tokens are the request's totals across every
// admission attempt; on an unretried request they are just the root's.
func (r *RequestRoots) EnergyJ() float64 { return r.Root.EnergyJ + r.energyJ }
func (r *RequestRoots) CapSec() float64  { return r.Root.CapSec + r.capSec }
func (r *RequestRoots) CapJ() float64    { return r.Root.CapJ + r.capJ }
func (r *RequestRoots) Tokens() int64    { return int64(r.Root.Tokens) + int64(r.tokens) }

// spanFields are the member names of a span record line.
var spanFields = []string{
	"seq", "req", "id", "parent", "kind", "start_us", "end_us", "server", "pool", "class", "tokens",
	"recompute", "preempts", "energy_j", "cap_s", "cap_j", "ttft_s", "reason", "retry", "session", "turn",
}

// parseSpanLine decodes one record line into a Span and its seq.
func parseSpanLine(raw []byte) (sp Span, seq uint64, err error) {
	sp = Span{Server: -1, Pool: PoolNone, TTFTSec: -1}
	d := recordDecoder{data: raw}
	for d.member(spanFields) {
		switch d.key {
		case "seq":
			d.uint64(&seq)
		case "req":
			d.int64(&sp.Req)
		case "id":
			d.int32(&sp.ID)
		case "parent":
			d.int32(&sp.Parent)
		case "kind":
			if s, ok := d.text(); ok {
				if sp.Kind, ok = ParseSpanKind(string(s)); !ok {
					return Span{}, 0, fmt.Errorf("unknown kind %q", s)
				}
			}
		case "start_us":
			d.micros(&sp.Start)
		case "end_us":
			d.micros(&sp.End)
		case "server":
			d.int32(&sp.Server)
		case "pool":
			d.pool(&sp.Pool)
		case "class":
			d.string(&sp.Class)
		case "tokens":
			d.int32(&sp.Tokens)
		case "recompute":
			d.bool(&sp.Recompute)
		case "preempts":
			d.int32(&sp.Preempts)
		case "energy_j":
			d.float64(&sp.EnergyJ)
		case "cap_s":
			d.float64(&sp.CapSec)
		case "cap_j":
			d.float64(&sp.CapJ)
		case "ttft_s":
			d.float64(&sp.TTFTSec)
		case "reason":
			d.string(&sp.Reason)
		case "retry":
			d.int32(&sp.Retry)
		case "session":
			d.int64(&sp.Session)
		case "turn":
			d.int32(&sp.Turn)
		}
	}
	if d.err != nil {
		return Span{}, 0, d.err
	}
	if sp.Kind == SpanNone {
		return Span{}, 0, fmt.Errorf("unknown kind %q", "")
	}
	return sp, seq, nil
}

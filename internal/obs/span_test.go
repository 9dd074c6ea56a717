package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func sampleSpans() []Span {
	return []Span{
		{Req: 2, ID: 1, Kind: SpanRequest, Start: 5 * time.Second, End: 9 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 80, Preempts: 1,
			EnergyJ: 412.5, CapSec: 0.8, CapJ: -33.25, TTFTSec: 1.25},
		{Req: 2, ID: 2, Parent: 1, Kind: SpanQueue, Start: 5 * time.Second, End: 6 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat"},
		{Req: 2, ID: 3, Parent: 1, Kind: SpanPrefill, Start: 6 * time.Second, End: 6*time.Second + 250*time.Millisecond,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 512, EnergyJ: 50},
		{Req: 2, ID: 4, Parent: 1, Kind: SpanPreempt, Start: 7 * time.Second, End: 7 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 600, Reason: "kv-pressure"},
		{Req: 2, ID: 5, Parent: 1, Kind: SpanPrefill, Start: 7 * time.Second, End: 7*time.Second + 300*time.Millisecond,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 512, Recompute: true, EnergyJ: 55},
		{Req: 2, ID: 6, Parent: 1, Kind: SpanDecode, Start: 7*time.Second + 300*time.Millisecond, End: 9 * time.Second,
			Server: 1, Pool: PoolHigh, Class: "chat", Tokens: 80, EnergyJ: 307.5, CapSec: 0.8, CapJ: -33.25},
		{Req: 1, ID: 1, Kind: SpanRequest, Start: 0, End: 4 * time.Second,
			Server: 0, Pool: PoolLow, Class: "code", Tokens: 0, TTFTSec: -1, Reason: "node-death"},
		{Req: 1, ID: 2, Parent: 1, Kind: SpanQueue, Start: 0, End: time.Second,
			Server: 0, Pool: PoolLow, Class: "code"},
	}
}

// TestSpanJSONLRoundTrip writes spans out and reads them back; every field
// must survive, and the output must come back sorted by (req, id).
func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	buf.WriteString("# git: unknown\n\n") // headers and blanks must be skipped
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Span
	if err := ScanSpans(&buf, nil, func(sp Span) error {
		got = append(got, sp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := tr.sortedSpans()
	if len(got) != len(want) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		if w.Kind != SpanRequest {
			// ttft_s is only on the wire for roots; readers see the
			// "absent" sentinel on children.
			w.TTFTSec = -1
		}
		if got[i] != w {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], w)
		}
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Req > b.Req || (a.Req == b.Req && a.ID >= b.ID) {
			t.Errorf("output not sorted by (req,id) at line %d", i)
		}
	}
}

// TestSpanJSONLValid checks the span log's shape: the spans header, then
// one standalone valid JSON object per span, led by its seq and req.
func TestSpanJSONLValid(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != `{"schema":"polca-spans/v1"}` {
		t.Fatalf("header line = %s", lines[0])
	}
	for i, line := range lines[1:] {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("record %d invalid JSON: %v\n%s", i+1, err, line)
		}
		if prefix := fmt.Sprintf(`{"seq":%d,"req":`, i+1); !strings.HasPrefix(line, prefix) {
			t.Errorf("record %d does not lead with %s: %s", i+1, prefix, line)
		}
	}
}

// spanHeader is the span log's header line.
const spanHeader = `{"schema":"polca-spans/v1"}` + "\n"

// TestSpanChromeTrace checks the Perfetto export is valid JSON with one
// thread_name metadata row per request and an instant for the preemption.
func TestSpanChromeTrace(t *testing.T) {
	tr := NewSpanTracer()
	for _, sp := range sampleSpans() {
		tr.Emit(sp)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	var threads, instants, slices int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threads++
			}
		case "i":
			instants++
		case "X":
			slices++
		}
	}
	if threads != 2 {
		t.Errorf("thread_name rows = %d, want 2 (one per request)", threads)
	}
	if instants != 1 {
		t.Errorf("instant rows = %d, want 1 (the preemption)", instants)
	}
	if slices != len(sampleSpans())-1 {
		t.Errorf("slice rows = %d, want %d", slices, len(sampleSpans())-1)
	}
}

func TestSpanTracerNil(t *testing.T) {
	var tr *SpanTracer
	tr.Emit(Span{Req: 1}) // must not panic
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer should be disabled and empty")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
}

// TestReadSpansErrors checks that reading spans back through ScanSpans
// rejects a malformed line and an unknown span kind.
func TestReadSpansErrors(t *testing.T) {
	keep := func(Span) error { return nil }
	if err := ScanSpans(strings.NewReader(spanHeader+"{not json}\n"), nil, keep); err == nil {
		t.Error("malformed JSON line should error")
	}
	if err := ScanSpans(strings.NewReader(spanHeader+`{"seq":1,"req":1,"id":1,"kind":"zebra","start_us":0,"end_us":1}`+"\n"), nil, keep); err == nil {
		t.Error("unknown span kind should error")
	}
}

func TestParseSpanKind(t *testing.T) {
	for _, k := range []SpanKind{SpanRequest, SpanQueue, SpanPrefill, SpanDecode, SpanPreempt} {
		got, ok := ParseSpanKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseSpanKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseSpanKind("none"); ok {
		t.Error(`ParseSpanKind("none") should reject the zero kind`)
	}
}

// BenchmarkSpanTracerDisabled measures the cost of the disabled path — a
// nil-receiver Emit must be a branch, not an allocation.
func BenchmarkSpanTracerDisabled(b *testing.B) {
	var tr *SpanTracer
	sp := Span{Req: 42, ID: 1, Kind: SpanDecode, Tokens: 8, EnergyJ: 1.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(sp)
	}
}

// TestScanSpans covers the streaming reader: spans stream in file order,
// comment lines reach the comment callback instead of the parser, and
// every failure mode — malformed JSON, unknown kind, a callback error, an
// over-long line — is reported with its 1-based line number.
func TestScanSpans(t *testing.T) {
	input := "# polca-sim v0\n\n" + spanHeader +
		`{"seq":1,"req":2,"id":1,"kind":"request","start_us":0,"end_us":100,"ttft_s":0.01}` + "\n" +
		`{"seq":2,"req":2,"id":2,"kind":"queue","start_us":0,"end_us":5}` + "\n"
	var comments []string
	var got []Span
	err := ScanSpans(strings.NewReader(input),
		func(line string) { comments = append(comments, line) },
		func(sp Span) error { got = append(got, sp); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(comments) != 1 || comments[0] != "# polca-sim v0" {
		t.Errorf("comments = %q", comments)
	}
	if len(got) != 2 || got[0].Kind != SpanRequest || got[1].Kind != SpanQueue {
		t.Errorf("spans = %+v", got)
	}

	for _, tc := range []struct {
		name, input, wantErr string
	}{
		{"bad json", spanHeader + `{"seq":1,"req":1,"id":1,"kind":"request","start_us":0,"end_us":1,"ttft_s":-1}` + "\n{not json}\n", "spans line 3:"},
		{"bad kind", spanHeader + `{"seq":1,"req":1,"id":1,"kind":"zebra","start_us":0,"end_us":1}` + "\n", `spans line 2: unknown kind "zebra"`},
	} {
		err := ScanSpans(strings.NewReader(tc.input), nil, func(Span) error { return nil })
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}

	// A callback error aborts the scan and carries the offending line.
	calls := 0
	err = ScanSpans(strings.NewReader(input), nil, func(Span) error {
		calls++
		return fmt.Errorf("stop here")
	})
	if err == nil || !strings.Contains(err.Error(), "spans line 4: stop here") {
		t.Errorf("callback error = %v", err)
	}
	if calls != 1 {
		t.Errorf("scan continued after callback error (%d calls)", calls)
	}
}

// TestScanSpansLongLine pins the over-long-line behavior the raised limit
// buys: a line beyond the cap fails loudly with its line number instead of
// stopping the scan silently, and a multi-megabyte line (beyond the old
// 1 MiB scanner cap) parses fine.
func TestScanSpansLongLine(t *testing.T) {
	big := spanHeader + `{"seq":1,"req":1,"id":1,"kind":"request","start_us":0,"end_us":1,"ttft_s":-1,"reason":"` +
		strings.Repeat("x", 2<<20) + `"}` + "\n"
	n := 0
	if err := ScanSpans(strings.NewReader(big), nil, func(Span) error { n++; return nil }); err != nil {
		t.Fatalf("2 MiB line: %v", err)
	}
	if n != 1 {
		t.Fatalf("2 MiB line parsed %d spans", n)
	}

	over := spanHeader + `{"seq":1,"req":1,"id":1,"kind":"request","start_us":0,"end_us":1,"ttft_s":-1}` + "\n" +
		strings.Repeat("y", maxJSONLLine+1)
	err := ScanSpans(strings.NewReader(over), nil, func(Span) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "spans line 3:") {
		t.Errorf("over-long line err = %v, want line 3 marker", err)
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line err = %v, want bufio.ErrTooLong", err)
	}
}

// TestScanSpansOutOfOrder feeds a child before its root, numbered in file
// order: the scanner checks the envelope's seqs, not the tree order, so
// both stream through (it is polca-analyze's fold that rejects a child
// without a root before it).
func TestScanSpansOutOfOrder(t *testing.T) {
	input := spanHeader + `{"seq":1,"req":7,"id":2,"kind":"queue","start_us":0,"end_us":5}` + "\n" +
		`{"seq":2,"req":7,"id":1,"kind":"request","start_us":0,"end_us":100,"ttft_s":0.01}` + "\n"
	var ids []int32
	if err := ScanSpans(strings.NewReader(input), nil, func(sp Span) error {
		ids = append(ids, sp.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Errorf("ids = %v, want file order [2 1]", ids)
	}
}

// TestRequestRoots folds a failed-over request's roots in any order: the
// highest Retry is the outcome, the superseded attempts' attribution
// accumulates beside it, and a second root for one attempt is an error.
func TestRequestRoots(t *testing.T) {
	var r RequestRoots
	for _, sp := range []Span{
		{Req: 5, Kind: SpanRequest, Retry: 1, EnergyJ: 10, CapSec: 1, CapJ: 2, Tokens: 3, TTFTSec: 0.5},
		{Req: 5, Kind: SpanRequest, Retry: 0, EnergyJ: 20, CapSec: 4, CapJ: 5, Tokens: 6, TTFTSec: 0.25},
		{Req: 5, Kind: SpanRequest, Retry: 2, EnergyJ: 40, CapSec: 8, CapJ: 9, Tokens: 10, TTFTSec: 1},
	} {
		if err := r.Add(sp); err != nil {
			t.Fatal(err)
		}
	}
	if r.Root.Retry != 2 || r.Root.TTFTSec != 1 || r.Superseded != 2 {
		t.Errorf("outcome = retry %d ttft %v, %d superseded", r.Root.Retry, r.Root.TTFTSec, r.Superseded)
	}
	if r.EnergyJ() != 70 || r.CapSec() != 13 || r.CapJ() != 16 || r.Tokens() != 19 {
		t.Errorf("totals = %v J, %v cap-s, %v cap-J, %d tokens", r.EnergyJ(), r.CapSec(), r.CapJ(), r.Tokens())
	}
	if err := r.Add(Span{Req: 5, Kind: SpanRequest, Retry: 2}); err == nil {
		t.Error("second root for the outcome attempt accepted")
	}
}

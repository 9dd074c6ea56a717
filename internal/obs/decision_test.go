package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func sampleTick(at time.Duration) Decision {
	return Decision{
		At:           at,
		TrueUtil:     0.83,
		Reading:      0.81,
		Delivered:    true,
		Braked:       false,
		Watchdog:     false,
		Stage:        1,
		LPDesiredMHz: 1275,
		HPDesiredMHz: 0,
		LPBusy:       5,
		HPBusy:       3,
		LPWatts:      2100.5,
		HPWatts:      1800.25,
	}
}

func sampleRoute(at time.Duration) (Decision, []RouteCandidate) {
	d := Decision{
		At:      at,
		ReqID:   42,
		Class:   "chat",
		Pri:     1,
		Retry:   1,
		Session: 7,
		Prefix:  3,
		Chosen:  1,
	}
	cands := []RouteCandidate{
		{Server: 2, Load: 4, KVFrac: 0.5, CappedMHz: 1110},
		{Server: 5, Load: 1, KVFrac: 0.25, CappedMHz: 0},
	}
	return d, cands
}

func TestDecisionRecorderNilSafe(t *testing.T) {
	var r *DecisionRecorder
	r.RecordTick(Decision{})
	r.RecordRoute(Decision{}, nil)
	r.UpdateMeta(func(*DecisionMeta) { t.Fatal("must not run on nil") })
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("nil recorder should be disabled and empty")
	}
	if d, c := r.Decisions(); d != nil || c != nil {
		t.Fatal("nil recorder should return nil slices")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionJSONLRoundTrip(t *testing.T) {
	r := NewDecisionRecorder()
	r.UpdateMeta(func(m *DecisionMeta) {
		*m = DecisionMeta{
			Policy:       "polca",
			Spec:         PolicySpec{Kind: "polca", T1: 0.80, T2: 0.89, UncapMargin: 0.05, LPBaseMHz: 1275, LPDeepMHz: 1110, HPCapMHz: 1305},
			Guard:        &GuardSpec{Window: 3, StuckAfter: 5, StuckMinUtil: 0.5, FailSafeAfter: 10, MaxStep: 0.10, FailSafeLPMHz: 1110, FailSafeHPMHz: 1305},
			TelemetrySec: 2,
			Servers:      16, LPServers: 8, HPServers: 8,
			ProvisionedW: 30000, BrakeUtil: 0.95, BrakeReleaseUtil: 0.90,
			IdleServerW: 500, BusyServerW: 2000, UncappedMHz: 1410,
			Serve: true, Router: "least-queue", Seed: 1,
		}
	})
	r.RecordTick(sampleTick(2 * time.Second))
	rd, rc := sampleRoute(2*time.Second + 300*time.Millisecond)
	r.RecordRoute(rd, rc)
	// A lost-telemetry tick with no reading and zero true util.
	r.RecordTick(Decision{At: 4 * time.Second, Lost: true, Watchdog: true, FailSafe: true, LPDesiredMHz: 1110, HPDesiredMHz: 1305})
	// An empty-candidate route (no server available).
	r.RecordRoute(Decision{At: 5 * time.Second, ReqID: 43, Pri: 0, Chosen: -1}, nil)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := r.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("decision JSONL export should be deterministic")
	}

	var got []Decision
	var gotCands [][]RouteCandidate
	meta, err := ScanDecisions(bytes.NewReader(buf.Bytes()), nil, func(d Decision, cands []RouteCandidate) error {
		got = append(got, d)
		cp := make([]RouteCandidate, len(cands))
		copy(cp, cands)
		gotCands = append(gotCands, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Schema != DecisionSchema {
		t.Fatalf("schema = %q", meta.Schema)
	}
	if meta.Spec.Kind != "polca" || meta.Spec.T2 != 0.89 || meta.Guard == nil || meta.Guard.Window != 3 {
		t.Fatalf("meta did not round-trip: %+v", meta)
	}
	if meta.Router != "least-queue" || !meta.Serve || meta.BusyServerW != 2000 {
		t.Fatalf("meta row fields did not round-trip: %+v", meta)
	}
	if len(got) != 4 {
		t.Fatalf("got %d decisions, want 4", len(got))
	}

	want := sampleTick(2 * time.Second)
	want.Kind = DecTick
	if got[0] != want {
		t.Fatalf("tick did not round-trip:\n got %+v\nwant %+v", got[0], want)
	}
	if got[1].Kind != DecRoute || got[1].ReqID != 42 || got[1].Class != "chat" || got[1].Chosen != 1 {
		t.Fatalf("route did not round-trip: %+v", got[1])
	}
	if len(gotCands[1]) != 2 || gotCands[1][0] != (RouteCandidate{Server: 2, Load: 4, KVFrac: 0.5, CappedMHz: 1110}) {
		t.Fatalf("candidates did not round-trip: %+v", gotCands[1])
	}
	if got[2].Delivered || !got[2].Lost || !got[2].Watchdog || !got[2].FailSafe {
		t.Fatalf("lost tick flags did not round-trip: %+v", got[2])
	}
	if got[3].Chosen != -1 || len(gotCands[3]) != 0 {
		t.Fatalf("empty route did not round-trip: %+v %v", got[3], gotCands[3])
	}
	// A delivered 0.0 reading must stay distinguishable from no reading.
	r2 := NewDecisionRecorder()
	r2.RecordTick(Decision{At: time.Second, Delivered: true, Reading: 0})
	var b3 bytes.Buffer
	if err := r2.WriteJSONL(&b3); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanDecisions(&b3, nil, func(d Decision, _ []RouteCandidate) error {
		if !d.Delivered || d.Reading != 0 {
			return fmt.Errorf("zero reading lost: %+v", d)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanDecisionsReportsGapsAndTruncation(t *testing.T) {
	r := NewDecisionRecorder()
	for i := 0; i < 5; i++ {
		r.RecordTick(sampleTick(time.Duration(i) * 2 * time.Second))
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")

	// Dropping a middle line is a sequence gap with the line number.
	gappy := strings.Join(append(append([]string{}, lines[:3]...), lines[4:]...), "")
	_, err := ScanDecisions(strings.NewReader(gappy), nil, func(Decision, []RouteCandidate) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("gap error = %v", err)
	}

	// Duplicating a line is a regression.
	dup := strings.Join([]string{lines[0], lines[1], lines[1]}, "")
	_, err = ScanDecisions(strings.NewReader(dup), nil, func(Decision, []RouteCandidate) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regression error = %v", err)
	}

	// Truncating mid-line is a parse error with the line number.
	trunc := strings.Join(lines[:2], "") + lines[2][:len(lines[2])/2]
	_, err = ScanDecisions(strings.NewReader(trunc), nil, func(Decision, []RouteCandidate) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("truncation error = %v", err)
	}

	// A missing header is an explicit error.
	_, err = ScanDecisions(strings.NewReader(""), nil, func(Decision, []RouteCandidate) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("empty-log error = %v", err)
	}

	// A foreign schema is refused.
	_, err = ScanDecisions(strings.NewReader(`{"schema":"polca-decisions/v1"}`+"\n"), nil, func(Decision, []RouteCandidate) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema error = %v", err)
	}
}

// BenchmarkDecisionRecord locks the enabled recording hot path at zero
// allocations per decision once buffers are warm (make ci runs it under
// polca-bench -zero-alloc). The disabled path is a nil-receiver branch,
// same as BenchmarkTracerDisabled.
func BenchmarkDecisionRecord(b *testing.B) {
	// The timed loop resets the log every window iterations: holding all
	// b.N decisions at once would need tens of GiB at the default
	// benchtime.
	const window = 1 << 16
	r := NewDecisionRecorder()
	tick := sampleTick(2 * time.Second)
	route, cands := sampleRoute(2 * time.Second)
	// Warm the arenas to their steady-state capacity, then reset: Reset
	// keeps capacity, so the timed loop measures the append path alone.
	for i := 0; i < window; i++ {
		r.RecordTick(tick)
		r.RecordRoute(route, cands)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			r.Reset()
		}
		r.RecordTick(tick)
		r.RecordRoute(route, cands)
	}
}

func BenchmarkDecisionRecordDisabled(b *testing.B) {
	var r *DecisionRecorder
	tick := sampleTick(2 * time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordTick(tick)
	}
}

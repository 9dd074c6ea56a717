package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestKindRoundTripExhaustive walks every declared Kind: each must have a
// distinct non-"unknown" wire name, ParseKind must invert String, and a
// representative event of that kind must survive the JSONL encode/decode
// round trip. A new kind added without a kindNames entry fails here, so
// export wiring can't be forgotten.
func TestKindRoundTripExhaustive(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share wire name %q", prev, k, name)
		}
		seen[name] = k
		parsed, ok := ParseKind(name)
		if !ok || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v, true", name, parsed, ok, k)
		}

		ev := Event{
			At: 1500 * time.Microsecond, Kind: k, Server: 3, Pool: PoolLow,
			MHz: 1275, Value: 0.5, Reason: "r", Label: "l",
		}
		line := appendRecord(nil, uint64(k), ev, appendEventJSON)
		got, seq, err := parseEventLine(line)
		if err != nil {
			t.Fatalf("kind %v: parse: %v\n%s", k, err, line)
		}
		if got != ev || seq != uint64(k) {
			t.Fatalf("kind %v did not round-trip:\n got %+v seq %d\nwant %+v seq %d", k, got, seq, ev, k)
		}
	}
	if _, ok := ParseKind("unknown"); ok {
		t.Fatal(`ParseKind("unknown") should fail`)
	}
	if _, ok := ParseKind("none"); ok {
		t.Fatal(`ParseKind("none") should fail: KindNone is not a wire kind`)
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

// TestTracerAssignsSequenceNumbers checks that the event log numbers its
// records 1, 2, 3, … as it writes them, and from 1 again after Reset.
func TestTracerAssignsSequenceNumbers(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 3; i++ {
		tr.Emit(Event{At: time.Duration(i) * time.Second, Kind: KindArrive, Server: -1, Pool: PoolNone})
	}
	seqs := func() (seqs []uint64) {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
			_, seq, err := parseEventLine([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		return seqs
	}
	if got := seqs(); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("seqs = %v, want [1 2 3]", got)
	}
	tr.Reset()
	tr.Emit(Event{Kind: KindArrive, Server: -1, Pool: PoolNone})
	if got := seqs(); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("seqs after Reset = %v, want [1]", got)
	}
}

func TestScanEventsRoundTripAndGapDetection(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Event{At: 1500 * time.Microsecond, Kind: KindThreshold, Server: -1,
		Pool: PoolNone, Value: 0.87, Reason: "t1.engage", Label: "polca"})
	tr.Emit(Event{At: 2 * time.Second, Kind: KindCapApply, Server: 7, Pool: PoolLow, MHz: 1200})
	tr.Emit(Event{At: 3 * time.Second, Kind: KindCapRelease, Server: 7, Pool: PoolLow})

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	var comments []string
	var got []Event
	input := "# header: yes\n\n" + buf.String()
	err := ScanEvents(strings.NewReader(input), func(l string) { comments = append(comments, l) }, func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(comments) != 1 || comments[0] != "# header: yes" {
		t.Fatalf("comments = %v", comments)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("events did not round-trip:\n got %+v\nwant %+v", got, want)
	}

	// lines[0] is the header; dropping the middle record is a gap with a
	// line number.
	lines := strings.SplitAfter(buf.String(), "\n")
	gappy := lines[0] + lines[1] + lines[3]
	err = ScanEvents(strings.NewReader(gappy), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("gap error = %v", err)
	}

	// Duplicated lines are a regression.
	err = ScanEvents(strings.NewReader(lines[0]+lines[1]+lines[1]), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("regression error = %v", err)
	}

	// A line without seq spliced into the log fails at that line.
	spliced := lines[0] + lines[1] + `{"t_us":2500000,"kind":"req.drop"}` + "\n" + lines[2]
	err = ScanEvents(strings.NewReader(spliced), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "missing seq") {
		t.Fatalf("splice error = %v", err)
	}

	// Unknown kinds fail with a line number.
	err = ScanEvents(strings.NewReader(lines[0]+`{"seq":1,"t_us":0,"kind":"zorp"}`+"\n"), nil, func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("unknown-kind error = %v", err)
	}
}

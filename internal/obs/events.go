package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// eventJSON is the decode-side shadow of appendEventJSON's wire format.
type eventJSON struct {
	Seq    uint64  `json:"seq"`
	TUS    int64   `json:"t_us"`
	Kind   string  `json:"kind"`
	Server int32   `json:"server"`
	Pool   string  `json:"pool"`
	MHz    float64 `json:"mhz"`
	Value  float64 `json:"value"`
	Reason string  `json:"reason"`
	Label  string  `json:"label"`
}

// parseEventLine decodes one non-comment JSONL line into an Event.
func parseEventLine(raw []byte) (Event, error) {
	ej := eventJSON{Server: -1}
	if err := json.Unmarshal(raw, &ej); err != nil {
		return Event{}, err
	}
	kind, ok := ParseKind(ej.Kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", ej.Kind)
	}
	pool := PoolNone
	switch ej.Pool {
	case "low":
		pool = PoolLow
	case "high":
		pool = PoolHigh
	}
	return Event{
		At:     time.Duration(ej.TUS) * time.Microsecond,
		Kind:   kind,
		Server: ej.Server,
		Pool:   pool,
		MHz:    ej.MHz,
		Value:  ej.Value,
		Reason: ej.Reason,
		Label:  ej.Label,
		Seq:    ej.Seq,
	}, nil
}

// ScanEvents streams event JSONL produced by Tracer.WriteJSONL: one callback
// per parsed event, in file order, without materializing the file. Blank
// lines are skipped; `#` provenance lines go to comment (when non-nil)
// instead of the parser.
//
// Sequence integrity: once a line carries a non-zero "seq", every subsequent
// line must continue the sequence exactly — a jump means lines were lost
// (truncated mid-file, a dropped shard of a concatenation), a repeat or
// regression means streams were interleaved, and a line without "seq"
// means a foreign stream was spliced in. Each fails with the 1-based line
// number instead of silently analyzing a partial stream. The first
// sequenced line may start anywhere (a ring-buffered tracer evicts the
// oldest events). Files written before sequence numbers existed carry no
// "seq" and skip the check. A file truncated mid-line surfaces as a JSON
// parse error on that line.
func ScanEvents(r io.Reader, comment func(line string), fn func(ev Event) error) error {
	seq := seqCheck{noun: "events"}
	sequenced := false
	return scanJSONL(r, "events", comment, func(raw []byte) error {
		ev, err := parseEventLine(raw)
		if err != nil {
			return err
		}
		if ev.Seq != 0 && !sequenced {
			sequenced, seq.last = true, ev.Seq-1
		}
		if sequenced {
			if err := seq.next(ev.Seq); err != nil {
				return err
			}
		}
		return fn(ev)
	})
}

// ReadEvents parses event JSONL produced by WriteJSONL, skipping blank lines
// and `#` provenance headers. Consumers that don't need the whole slice at
// once should prefer ScanEvents, which this wraps.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	err := ScanEvents(r, nil, func(ev Event) error {
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

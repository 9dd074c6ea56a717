package obs

import (
	"fmt"
	"io"
)

// eventFields are the member names of appendEventJSON's wire format.
var eventFields = []string{"seq", "t_us", "kind", "server", "pool", "mhz", "value", "reason", "label"}

// parseEventLine decodes one non-comment JSONL line into an Event.
func parseEventLine(raw []byte) (Event, error) {
	ev := Event{Server: -1, Pool: PoolNone}
	d := recordDecoder{data: raw}
	for d.member(eventFields) {
		switch d.key {
		case "seq":
			d.uint64(&ev.Seq)
		case "t_us":
			d.micros(&ev.At)
		case "kind":
			if s, ok := d.text(); ok {
				if ev.Kind, ok = ParseKind(string(s)); !ok {
					return Event{}, fmt.Errorf("unknown kind %q", s)
				}
			}
		case "server":
			d.int32(&ev.Server)
		case "pool":
			d.pool(&ev.Pool)
		case "mhz":
			d.float64(&ev.MHz)
		case "value":
			d.float64(&ev.Value)
		case "reason":
			d.string(&ev.Reason)
		case "label":
			d.string(&ev.Label)
		}
	}
	if d.err != nil {
		return Event{}, d.err
	}
	if ev.Kind == KindNone {
		return Event{}, fmt.Errorf("unknown kind %q", "")
	}
	return ev, nil
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

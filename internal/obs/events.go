package obs

import (
	"fmt"
	"io"
)

// eventFields are the member names of an event record line.
var eventFields = []string{"seq", "t_us", "kind", "server", "pool", "mhz", "value", "reason", "label"}

// parseEventLine decodes one record line into an Event and its seq.
func parseEventLine(raw []byte) (ev Event, seq uint64, err error) {
	ev = Event{Server: -1, Pool: PoolNone}
	d := recordDecoder{data: raw}
	for d.member(eventFields) {
		switch d.key {
		case "seq":
			d.uint64(&seq)
		case "t_us":
			d.micros(&ev.At)
		case "kind":
			if s, ok := d.text(); ok {
				if ev.Kind, ok = ParseKind(string(s)); !ok {
					return Event{}, 0, fmt.Errorf("unknown kind %q", s)
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
		return Event{}, 0, d.err
	}
	if ev.Kind == KindNone {
		return Event{}, 0, fmt.Errorf("unknown kind %q", "")
	}
	return ev, seq, nil
}

// ScanEvents streams an event log written by Tracer.WriteJSONL: one
// callback per event, in file order, without materializing the file. `#`
// provenance lines go to comment (when non-nil). The envelope's checks
// apply (see scanLog): a file without the events header, or whose records
// do not run 1, 2, 3, …, fails with the offending line number.
func ScanEvents(r io.Reader, comment func(line string), fn func(ev Event) error) error {
	return scanLog(r, eventLog, nil, comment, parseEventLine, fn)
}

package obs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// maxJSONLLine bounds one JSONL line. Record lines are a few hundred
// bytes, but the limit is generous so a hand-edited or concatenated file
// fails with a line-numbered error rather than a silent mid-file stop.
const maxJSONLLine = 64 * 1024 * 1024

// scanJSONL is the reader loop the event, span and decision formats share:
// it streams r line by line without materializing it, skips blank lines,
// hands `#` provenance lines to comment (when non-nil), and calls fn with
// each record line. An error from fn aborts the scan; it and reader errors
// (including a line over maxJSONLLine) come back as "<kind> line N: …"
// with the 1-based line number.
func scanJSONL(r io.Reader, kind string, comment func(line string), fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLine)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '#' {
			if comment != nil {
				comment(string(raw))
			}
			continue
		}
		if err := fn(raw); err != nil {
			return fmt.Errorf("%s line %d: %w", kind, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%s line %d: longer than %d bytes: %w", kind, line+1, maxJSONLLine, err)
		}
		return fmt.Errorf("%s line %d: %w", kind, line+1, err)
	}
	return nil
}

// seqCheck enforces that a stream's sequence numbers run on by exactly
// one: a jump means records were lost (truncated mid-file, a dropped shard
// of a concatenation), a repeat or regression means streams were
// interleaved, and a record without one after sequenced records means a
// foreign stream was spliced in.
type seqCheck struct {
	noun string // the records' name in a gap error
	last uint64 // the last sequence number seen
}

func (c *seqCheck) next(seq uint64) error {
	switch {
	case seq == c.last+1:
		c.last = seq
		return nil
	case seq == 0 && c.last > 0:
		return fmt.Errorf("missing seq after seq %d", c.last)
	case seq > c.last:
		return fmt.Errorf("sequence gap: seq %d follows %d (%d %s missing)", seq, c.last, seq-c.last-1, c.noun)
	}
	return fmt.Errorf("sequence regression: seq %d follows %d", seq, c.last)
}

// writeChromeRows writes the Chrome trace-event JSON document both the
// event and the span exports produce: the track-naming metadata rows, then
// the trace rows. A bufio.Writer keeps its first write error and returns
// it from Flush, so only Flush is checked.
func writeChromeRows(w io.Writer, meta, rows []chromeTraceRow) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	buf := make([]byte, 0, 256)
	sep := ""
	for _, part := range [][]chromeTraceRow{meta, rows} {
		for _, r := range part {
			buf = r.append(append(buf[:0], sep...))
			bw.Write(buf)
			sep = ",\n"
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

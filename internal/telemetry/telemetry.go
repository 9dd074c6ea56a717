// Package telemetry models the power-monitoring interfaces of an LLM
// cluster (paper Table 1): in-band DCGM at 100 ms, out-of-band IPMI and
// SMBPBI at seconds granularity, and the row manager at 2 s. It provides
// the counter timeline abstraction the profiler samples, including the
// interval-update lag the paper observes on activity counters and the
// peak-based alignment used to correct for it.
package telemetry

import (
	"fmt"
	"sort"
	"time"

	"polca/internal/gpu"
	"polca/internal/stats"
)

// Path distinguishes in-band (driver-level) from out-of-band (BMC-level)
// monitoring interfaces.
type Path int

const (
	InBand Path = iota
	OutOfBand
)

// String returns "IB" or "OOB".
func (p Path) String() string {
	if p == InBand {
		return "IB"
	}
	return "OOB"
}

// Interface describes one monitoring mechanism (one row of Table 1).
type Interface struct {
	Name        string
	Granularity string // what it measures: GPU, server, row of racks, ...
	Path        Path
	Interval    time.Duration // practical sampling interval
	Reliable    bool          // OOB GPU interfaces may fail silently (§3.3)
}

// Table1 returns the paper's monitoring-interface inventory.
func Table1() []Interface {
	return []Interface{
		{Name: "RAPL", Granularity: "CPU & DRAM", Path: InBand, Interval: 10 * time.Millisecond, Reliable: true},
		{Name: "DCGM", Granularity: "GPU", Path: InBand, Interval: 100 * time.Millisecond, Reliable: true},
		{Name: "SMBPBI", Granularity: "GPU", Path: OutOfBand, Interval: 5 * time.Second, Reliable: false},
		{Name: "IPMI", Granularity: "Server", Path: OutOfBand, Interval: 3 * time.Second, Reliable: true},
		{Name: "RowManager", Granularity: "Row of racks", Path: OutOfBand, Interval: 2 * time.Second, Reliable: true},
	}
}

// ByName returns the Table 1 interface with the given name.
func ByName(name string) (Interface, error) {
	for _, i := range Table1() {
		if i.Name == name {
			return i, nil
		}
	}
	return Interface{}, fmt.Errorf("telemetry: unknown interface %q", name)
}

// segment is one piecewise-constant stretch of counters.
type segment struct {
	start, end time.Duration
	ctr        gpu.Counters
}

// Timeline is a piecewise-constant record of GPU counters over virtual
// time, built by appending execution results back to back. It is the raw
// material DCGM-style samplers draw from.
type Timeline struct {
	segs []segment
	end  time.Duration
	idle gpu.Counters // counters reported for gaps and beyond the end
}

// NewTimeline returns an empty timeline whose gaps report the given idle
// counter values.
func NewTimeline(idle gpu.Counters) *Timeline {
	return &Timeline{idle: idle}
}

// End returns the time at which the last appended segment finishes.
func (t *Timeline) End() time.Duration { return t.end }

// Append adds an execution at the given start time (usually End() for
// back-to-back phases) and returns the time it finishes. Appends must be
// in non-decreasing start order; gaps are reported as idle. An append
// before the current end — possible when callers compute start times from
// external input — is rejected with an error rather than corrupting the
// piecewise-constant invariant.
func (t *Timeline) Append(start time.Duration, e gpu.Exec) (time.Duration, error) {
	if start < t.end {
		return t.end, fmt.Errorf("telemetry: append at %v before timeline end %v", start, t.end)
	}
	at := start
	for _, s := range e.Segments {
		if s.Duration <= 0 {
			continue
		}
		t.segs = append(t.segs, segment{start: at, end: at + s.Duration, ctr: s.Counters})
		at += s.Duration
	}
	if at > t.end {
		t.end = at
	}
	return at, nil
}

// AppendIdle advances the timeline by d of idle time and returns the new end.
func (t *Timeline) AppendIdle(d time.Duration) time.Duration {
	t.end += d
	return t.end
}

// At returns the counters in effect at time ts.
func (t *Timeline) At(ts time.Duration) gpu.Counters {
	if ts >= t.end || len(t.segs) == 0 {
		return t.idle
	}
	// Find the last segment starting at or before ts.
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].start > ts }) - 1
	if i < 0 {
		return t.idle
	}
	// The segment may have ended before ts if a gap follows.
	if ts >= t.segs[i].end {
		return t.idle
	}
	return t.segs[i].ctr
}

// MeanBetween returns the time-weighted mean of sel over [from, to).
func (t *Timeline) MeanBetween(from, to time.Duration, sel func(gpu.Counters) float64) float64 {
	if to <= from {
		return sel(t.At(from))
	}
	var weighted float64
	cur := from
	for cur < to {
		ctr := t.At(cur)
		next := t.nextBoundary(cur)
		if next > to || next <= cur {
			next = to
		}
		weighted += sel(ctr) * float64(next-cur)
		cur = next
	}
	return weighted / float64(to-from)
}

// nextBoundary returns the first segment boundary (start or end) strictly
// after ts, or the timeline end.
func (t *Timeline) nextBoundary(ts time.Duration) time.Duration {
	i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].start > ts })
	best := ts
	if i < len(t.segs) {
		best = t.segs[i].start
	} else if t.end > ts {
		best = t.end
	}
	// The enclosing segment may end (into a gap) before the next start.
	if i > 0 {
		if end := t.segs[i-1].end; end > ts && (end < best || best == ts) {
			best = end
		}
	}
	return best
}

// SampleInstant samples sel at multiples of step over [0, End()), the way
// DCGM reports instantaneous counters such as power.
func (t *Timeline) SampleInstant(step time.Duration, sel func(gpu.Counters) float64) stats.Series {
	return t.SampleInstantUntil(t.end, step, sel)
}

// SampleInstantUntil is SampleInstant with an explicit horizon.
func (t *Timeline) SampleInstantUntil(horizon, step time.Duration, sel func(gpu.Counters) float64) stats.Series {
	if step <= 0 {
		panic("telemetry: non-positive sampling step")
	}
	out := stats.Series{Step: step}
	for ts := time.Duration(0); ts < horizon; ts += step {
		out.Values = append(out.Values, sel(t.At(ts)))
	}
	return out
}

// Selectors for the counters profiled in Figure 7.
var (
	Power     = func(c gpu.Counters) float64 { return c.PowerWatts }
	GPUUtil   = func(c gpu.Counters) float64 { return c.GPUUtil }
	MemUtil   = func(c gpu.Counters) float64 { return c.MemUtil }
	SMAct     = func(c gpu.Counters) float64 { return c.SMActivity }
	TensorAct = func(c gpu.Counters) float64 { return c.TensorActivity }
	MemAct    = func(c gpu.Counters) float64 { return c.MemActivity }
	PCIeTX    = func(c gpu.Counters) float64 { return c.PCIeTXMBps }
	PCIeRX    = func(c gpu.Counters) float64 { return c.PCIeRXMBps }
)

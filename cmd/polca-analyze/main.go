// Command polca-analyze reads the request-span JSONL that `polca-sim -serve
// -spans out.jsonl` writes and produces an offline latency/energy report:
// where TTFT (time to first token) is spent on the critical path — queueing,
// prefill, preemption recompute, cap-induced slowdown — per-class latency
// and energy percentile tables computed exactly from the spans, and the
// top-K slowest and most energy-expensive requests.
//
// Usage:
//
//	polca-analyze [-top 10] [-ttft-slo 15s] spans.jsonl
//	polca-analyze -alerts [-top 10] trace.jsonl
//
// The per-class table reports SLO attainment — the fraction of each class's
// requests whose first token arrived within -ttft-slo (default 15s, the
// simulator's TTFT SLO) — followed by the Jain fairness index of those
// per-class attainment fractions: 1.0 means every class meets its SLO
// equally often, lower means the misses concentrate on a few classes.
// Scenario traces (polca-sim -scenario) additionally get a session summary,
// since their spans carry multi-turn session ids.
//
// With -alerts the input is instead the event trace written by `polca-sim
// -trace`, and the report reconstructs the rules engine's alert episodes
// offline: a per-alert summary (fires, total active time, longest episode)
// and the top-K longest episodes. The offline reconstruction reconciles
// exactly with the simulator's own alert summary because every fire is
// paired with a resolve, including end-of-run resolution.
//
// Reports are self-describing: the analyzer stamps its own `#` provenance
// header (tool, git revision, input path, mode, parameters) above the
// input's echoed `#` header, so a saved report records both how the data
// was produced and how it was read. -no-provenance suppresses the
// analyzer's lines (the git stamp varies by build) for byte-stable
// golden outputs. All percentiles here are exact (computed over every
// request in the trace); the simulator's own report uses a streaming
// quantile sketch, so the two agree to within the sketch's rank guarantee.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"polca/internal/obs"
	"polca/internal/stats"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the analyzer; split from main so tests drive it end to end.
func cli(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polca-analyze", flag.ContinueOnError)
	fs.SetOutput(errw)
	top := fs.Int("top", 10, "rows in the top-K slowest/most-expensive tables")
	ttftSLO := fs.Duration("ttft-slo", 15*time.Second, "TTFT SLO threshold for the per-class attainment column")
	alerts := fs.Bool("alerts", false, "analyze an event trace's alert.fire/alert.resolve stream instead of spans")
	noProv := fs.Bool("no-provenance", false, "suppress the analyzer's own `#` run-provenance header (input headers are still echoed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: polca-analyze [-alerts] [-top N] trace.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}
	defer f.Close()
	analyze := func(r io.Reader, top int) (string, error) {
		return AnalyzeSLO(r, top, ttftSLO.Seconds())
	}
	mode := "spans"
	if *alerts {
		analyze = AnalyzeAlerts
		mode = "alerts"
	}
	report, err := analyze(f, *top)
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}
	if !*noProv {
		// The analyzer's own provenance, above the echoed input headers, so
		// a saved report records both how the data was made and how it was
		// read. -no-provenance drops the analyzer lines (the git stamp
		// varies by build), keeping golden outputs byte-stable.
		prov := obs.Provenance{
			"tool":  "polca-analyze",
			"git":   obs.GitDescribe(),
			"input": fs.Arg(0),
			"mode":  mode,
			"top":   *top,
		}
		if !*alerts {
			prov["ttft-slo"] = ttftSLO.String()
		}
		if err := obs.WriteProvenance(out, prov); err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
	}
	fmt.Fprint(out, report)
	return 0
}

// request is one span tree folded into per-request aggregates: its root
// spans across failover attempts (the outcome Root, with the superseded
// attempts' energy, tokens and cap attribution kept so the report stays
// conserved) and the outcome's critical path.
type request struct {
	obs.RequestRoots
	// critical-path components inside the [arrival, first token] window,
	// in seconds
	queue, prefill, recompute, stall float64
}

// latencySec is the request's total residency (arrival to completion/drop).
func (r *request) latencySec() float64 { return (r.Root.End - r.Root.Start).Seconds() }

// Analyze is AnalyzeSLO at the simulator's default 15 s TTFT SLO.
func Analyze(r io.Reader, top int) (string, error) {
	return AnalyzeSLO(r, top, 15)
}

// AnalyzeSLO reads a span log in one streaming pass and renders the
// offline report, judging per-class SLO attainment against sloSec. Spans
// fold into per-request aggregates as they arrive, so memory is
// proportional to the number of requests, never to the span count or the
// file size.
func AnalyzeSLO(r io.Reader, top int, sloSec float64) (string, error) {
	f := newFolder()
	var header []string
	err := obs.ScanSpans(r, func(line string) { header = append(header, line) }, f.add)
	if err != nil {
		return "", err
	}
	reqs := f.finish()
	if len(reqs) == 0 {
		return "", fmt.Errorf("no request spans in input")
	}

	var b strings.Builder
	for _, line := range header {
		fmt.Fprintln(&b, line)
	}
	if len(header) > 0 {
		fmt.Fprintln(&b)
	}
	writeOverview(&b, reqs)
	writeCriticalPath(&b, reqs)
	writeClassTable(&b, reqs, sloSec)
	writeTopK(&b, reqs, top)
	return b.String(), nil
}

// folder incrementally groups spans by request and derives the
// critical-path breakdown: child spans clipped to the [arrival,
// arrival+TTFT] window, since the time to first token is what the breakdown
// explains. Decode time never appears in the window (the first token rides
// the final prefill chunk); whatever the children leave uncovered is
// scheduler stall between iterations.
type folder struct {
	byReq map[int64]*request
}

func newFolder() *folder {
	return &folder{byReq: map[int64]*request{}}
}

// add folds one span. The span writer puts each attempt's root before its
// children and the log's seq check rejects reordered files, so a child
// whose request has no root yet is an error.
func (f *folder) add(sp obs.Span) error {
	req := f.byReq[sp.Req]
	if sp.Kind == obs.SpanRequest {
		if req == nil {
			req = &request{}
			f.byReq[sp.Req] = req
		}
		return req.Add(sp)
	}
	if req == nil {
		return fmt.Errorf("span %d/%d has no request root before it", sp.Req, sp.ID)
	}
	req.fold(sp)
	return nil
}

// fold applies one child span to the request's critical path.
func (r *request) fold(c obs.Span) {
	if r.Root.TTFTSec < 0 {
		return // never produced a token: no critical path to split
	}
	windowEnd := r.Root.Start + time.Duration(r.Root.TTFTSec*float64(time.Second))
	clipped := clip(c.Start, c.End, r.Root.Start, windowEnd)
	switch c.Kind {
	case obs.SpanQueue:
		r.queue += clipped
	case obs.SpanPrefill:
		if c.Recompute {
			r.recompute += clipped
		} else {
			r.prefill += clipped
		}
	}
}

// finish computes the stall residuals and returns the requests ordered by
// ID.
func (f *folder) finish() []*request {
	reqs := make([]*request, 0, len(f.byReq))
	for _, req := range f.byReq {
		if req.Root.TTFTSec >= 0 {
			if stall := req.Root.TTFTSec - req.queue - req.prefill - req.recompute; stall > 0 {
				req.stall = stall
			}
		}
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Root.Req < reqs[j].Root.Req })
	return reqs
}

// clip returns the seconds of [s, e] that fall inside [lo, hi].
func clip(s, e, lo, hi time.Duration) float64 {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	if e <= s {
		return 0
	}
	return (e - s).Seconds()
}

func writeOverview(b *strings.Builder, reqs []*request) {
	var energy, capSec, capJ float64
	var tokens int64
	completed, dropped, preempted, attempts, retriedReqs := 0, 0, 0, 0, 0
	reasons := map[string]int{}
	for _, r := range reqs {
		energy += r.EnergyJ()
		capSec += r.CapSec()
		capJ += r.CapJ()
		tokens += r.Tokens()
		if r.Root.Reason == "" {
			completed++
		} else {
			dropped++
			reasons[r.Root.Reason]++
		}
		if r.Root.Preempts > 0 {
			preempted++
		}
		// In a complete trace the superseded-root count equals the final
		// root's Retry; on a truncated trace take whichever survived.
		n := r.Superseded
		if int(r.Root.Retry) > n {
			n = int(r.Root.Retry)
		}
		if n > 0 {
			attempts += n
			retriedReqs++
		}
	}
	fmt.Fprintf(b, "Requests: %d (%d completed, %d dropped, %d preempted at least once)\n",
		len(reqs), completed, dropped, preempted)
	// Scenario traces carry session ids on their root spans; legacy traces
	// have none, and then the line is suppressed so old reports reproduce.
	sessions := map[int64]bool{}
	maxTurn := int32(0)
	for _, r := range reqs {
		if r.Root.Session != 0 {
			sessions[r.Root.Session] = true
			if r.Root.Turn > maxTurn {
				maxTurn = r.Root.Turn
			}
		}
	}
	if len(sessions) > 0 {
		fmt.Fprintf(b, "Sessions: %d multi-turn sessions (deepest turn %d)\n", len(sessions), maxTurn)
	}
	if attempts > 0 {
		fmt.Fprintf(b, "Failover: %d retried attempts across %d requests\n", attempts, retriedReqs)
	}
	if dropped > 0 {
		names := make([]string, 0, len(reasons))
		for name := range reasons {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(b, "Drop reasons:")
		for _, name := range names {
			fmt.Fprintf(b, " %s=%d", name, reasons[name])
		}
		fmt.Fprintln(b)
	}
	jPerTok := 0.0
	if tokens > 0 {
		jPerTok = energy / float64(tokens)
	}
	fmt.Fprintf(b, "Energy: %.2f kJ attributed across %d generated tokens (%.1f J/token)\n",
		energy/1e3, tokens, jPerTok)
	fmt.Fprintf(b, "Cap slowdown: %+.1f request-seconds, %+.2f kJ vs the DVFS-uncapped counterfactual\n\n",
		capSec, capJ/1e3)
}

// writeCriticalPath explains where TTFT goes: exact percentiles of each
// component and its share of the summed TTFT.
func writeCriticalPath(b *strings.Builder, reqs []*request) {
	var ttft, queue, prefill, recompute, stall, capSec []float64
	var totTTFT float64
	for _, r := range reqs {
		if r.Root.TTFTSec < 0 {
			continue
		}
		ttft = append(ttft, r.Root.TTFTSec)
		queue = append(queue, r.queue)
		prefill = append(prefill, r.prefill)
		recompute = append(recompute, r.recompute)
		stall = append(stall, r.stall)
		capSec = append(capSec, r.Root.CapSec)
		totTTFT += r.Root.TTFTSec
	}
	if len(ttft) == 0 {
		fmt.Fprintf(b, "Critical path: no request produced a first token\n\n")
		return
	}
	fmt.Fprintf(b, "TTFT critical path (%d requests with a first token):\n", len(ttft))
	fmt.Fprintf(b, "%-22s %10s %10s %10s %8s\n", "Component", "mean (s)", "p50 (s)", "p99 (s)", "share")
	row := func(name string, xs []float64) {
		share := 0.0
		if totTTFT > 0 {
			share = stats.Sum(xs) / totTTFT
		}
		sorted := stats.Sorted(xs)
		fmt.Fprintf(b, "%-22s %10.3f %10.3f %10.3f %7.1f%%\n",
			name, stats.Mean(xs), stats.PercentileSorted(sorted, 50), stats.PercentileSorted(sorted, 99), share*100)
	}
	row("queue wait", queue)
	row("prefill", prefill)
	row("preemption recompute", recompute)
	row("scheduler stall", stall)
	row("ttft total", ttft)
	capSorted := stats.Sorted(capSec)
	fmt.Fprintf(b, "%-22s %10.3f %10.3f %10.3f %8s\n",
		"cap slowdown (request)", stats.Mean(capSec), stats.PercentileSorted(capSorted, 50),
		stats.PercentileSorted(capSorted, 99), "-")
	fmt.Fprintln(b)
}

func writeClassTable(b *strings.Builder, reqs []*request, sloSec float64) {
	type agg struct {
		ttft, lat, energy []float64
		capSec            float64
		tokens            int64
		sloOK             int
	}
	classes := map[string]*agg{}
	var names []string
	for _, r := range reqs {
		name := r.Root.Class
		if name == "" {
			name = "(none)"
		}
		a := classes[name]
		if a == nil {
			a = &agg{}
			classes[name] = a
			names = append(names, name)
		}
		if r.Root.TTFTSec >= 0 {
			a.ttft = append(a.ttft, r.Root.TTFTSec)
			if r.Root.TTFTSec <= sloSec {
				a.sloOK++
			}
		}
		a.lat = append(a.lat, r.latencySec())
		a.energy = append(a.energy, r.EnergyJ())
		a.capSec += r.CapSec()
		a.tokens += r.Tokens()
	}
	sort.Strings(names)
	fmt.Fprintf(b, "Per-class latency and energy (exact percentiles over the trace; SLO = TTFT <= %gs):\n", sloSec)
	fmt.Fprintf(b, "%-12s %6s %9s %9s %8s %9s %9s %10s %10s %9s %9s\n",
		"Class", "reqs", "TTFT p50", "TTFT p99", "attain", "lat p50", "lat p99", "J p50", "J p99", "J/token", "cap (s)")
	var attain []float64
	for _, name := range names {
		a := classes[name]
		jPerTok := 0.0
		if a.tokens > 0 {
			jPerTok = stats.Sum(a.energy) / float64(a.tokens)
		}
		// Attainment over every request of the class: a request that never
		// produced a first token (dropped, shed) is an SLO miss.
		frac := float64(a.sloOK) / float64(len(a.lat))
		attain = append(attain, frac)
		ttft, lat, energy := stats.Sorted(a.ttft), stats.Sorted(a.lat), stats.Sorted(a.energy)
		fmt.Fprintf(b, "%-12s %6d %9.3f %9.3f %7.1f%% %9.2f %9.2f %10.1f %10.1f %9.1f %9.1f\n",
			name, len(a.lat),
			stats.PercentileSorted(ttft, 50), stats.PercentileSorted(ttft, 99), frac*100,
			stats.PercentileSorted(lat, 50), stats.PercentileSorted(lat, 99),
			stats.PercentileSorted(energy, 50), stats.PercentileSorted(energy, 99),
			jPerTok, a.capSec)
	}
	fmt.Fprintf(b, "Jain fairness of SLO attainment across classes: %.3f\n\n", stats.Jain(attain))
}

func writeTopK(b *strings.Builder, reqs []*request, top int) {
	if top <= 0 {
		return
	}
	byTTFT := make([]*request, 0, len(reqs))
	for _, r := range reqs {
		if r.Root.TTFTSec >= 0 {
			byTTFT = append(byTTFT, r)
		}
	}
	sort.SliceStable(byTTFT, func(i, j int) bool { return byTTFT[i].Root.TTFTSec > byTTFT[j].Root.TTFTSec })
	writeRanked(b, fmt.Sprintf("Top %d slowest first tokens:", min(top, len(byTTFT))), byTTFT, top)

	byEnergy := append([]*request(nil), reqs...)
	sort.SliceStable(byEnergy, func(i, j int) bool { return byEnergy[i].EnergyJ() > byEnergy[j].EnergyJ() })
	writeRanked(b, fmt.Sprintf("Top %d most energy-expensive:", min(top, len(byEnergy))), byEnergy, top)
}

func writeRanked(b *strings.Builder, title string, ranked []*request, top int) {
	fmt.Fprintln(b, title)
	fmt.Fprintf(b, "%8s %-12s %6s %8s %9s %9s %9s %8s %8s\n",
		"req", "class", "server", "TTFT (s)", "lat (s)", "J", "cap (s)", "tokens", "preempts")
	for i, r := range ranked {
		if i >= top {
			break
		}
		ttft := "-"
		if r.Root.TTFTSec >= 0 {
			ttft = fmt.Sprintf("%.3f", r.Root.TTFTSec)
		}
		fmt.Fprintf(b, "%8d %-12s %6d %8s %9.2f %9.1f %9.1f %8d %8d\n",
			r.Root.Req, r.Root.Class, r.Root.Server, ttft, r.latencySec(),
			r.EnergyJ(), r.CapSec(), r.Tokens(), r.Root.Preempts)
	}
	fmt.Fprintln(b)
}

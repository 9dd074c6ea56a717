// Command polca-replay re-evaluates a recorded decision log against
// alternate policy configurations — purely on the recorded input
// snapshots, with no re-simulation — and prices the divergence into
// per-decision regret.
//
// Usage:
//
//	polca-replay [-top 10] [-grid "-0.05,0,0.05"] [-routers]
//	             [-spans spans.jsonl] [-perfetto regret.json]
//	             [-no-provenance] decisions.jsonl
//	polca-replay -self decisions.jsonl
//
// The input is the JSONL decision log that `polca-sim -decisions` writes
// (schema polca-decisions/v2): every controller tick with the exact
// telemetry reading or outage the policy saw, the guard/watchdog state and
// busy/power snapshot per pool, and every router pick with its per-replica
// queue/KV/cap candidate set. Because each decision carries its full
// input, any alternate cap policy can be asked "what would you have done
// here?" and any router policy can re-pick over the same candidates.
//
// The report opens with the self-replay fidelity check — the recorded
// configuration replayed against its own log must reproduce 100% of
// decisions, which is what proves the log complete — then compares the
// deployed cap policy against the standard alternates (the 1-Thresh
// baselines and no-cap) and a T1/T2 threshold grid
// around the deployed values. Each diverged tick is priced from the
// recorded busy/power snapshot using the same inference cost model the
// simulator runs on: headroom joules the deployed config left unreclaimed
// when the row had safe margin, joules a deeper-capping alternate would
// have saved, busy-server latency seconds burned relative to the
// alternate, and brake risk where reclaiming headroom would have pushed
// estimated utilization to the brake threshold. Per-policy summaries are
// followed by top-K regret tables, and -routers replays every registered
// router policy over the recorded candidate snapshots (stateful policies
// reproduce their cursors, so the deployed router is divergence-free).
//
// -spans folds the run's request-span trace (polca-sim -spans) into the
// report, giving the recorded per-request TTFT/cap/energy baseline that
// the regret estimates scale against. -perfetto writes the highest-regret
// intervals as a Chrome trace-event annotation track to load next to the
// run's other traces in ui.perfetto.dev.
//
// -self runs only the fidelity check and exits non-zero on any
// divergence, which makes it a cheap CI gate over recorded logs. Reports
// are self-describing: a `#` provenance header (suppress with
// -no-provenance for byte-stable golden outputs) above the input log's
// echoed header.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"polca/internal/obs"
	"polca/internal/replay"
	"polca/internal/serve"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the replayer; split from main so tests drive it end to end.
func cli(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polca-replay", flag.ContinueOnError)
	fs.SetOutput(errw)
	top := fs.Int("top", 10, "rows in each per-policy top-regret table")
	grid := fs.String("grid", "-0.05,0,0.05", "comma-separated T1/T2 offsets for the threshold sweep (empty disables; POLCA logs only)")
	routers := fs.Bool("routers", true, "replay every registered router policy over the recorded candidate snapshots")
	spansPath := fs.String("spans", "", "fold the run's request-span trace into the report as the recorded per-request baseline")
	perfettoPath := fs.String("perfetto", "", "write the top-regret intervals as a Chrome trace-event annotation track")
	self := fs.Bool("self", false, "fidelity check only: replay the deployed configuration and exit non-zero on any divergence")
	noProv := fs.Bool("no-provenance", false, "suppress the replayer's own `#` provenance header (input headers are still echoed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: polca-replay [-self] [-top N] [-grid OFFSETS] decisions.jsonl")
		return 2
	}
	offsets, err := parseOffsets(*grid)
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 2
	}

	l, err := replay.LoadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}

	if !*noProv {
		prov := obs.Provenance{
			"tool":  "polca-replay",
			"git":   obs.GitDescribe(),
			"input": fs.Arg(0),
			"top":   *top,
		}
		if *grid != "" {
			prov["grid"] = *grid
		}
		if *self {
			prov["self"] = true
		}
		if err := obs.WriteProvenance(out, prov); err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
	}
	for _, c := range l.Comments {
		fmt.Fprintln(out, c)
	}
	if len(l.Comments) > 0 || !*noProv {
		fmt.Fprintln(out)
	}

	writeOverview(out, l)
	tickDiv, routeDiv, err := writeFidelity(out, l)
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}
	if *self {
		if tickDiv+routeDiv > 0 {
			fmt.Fprintln(errw, "error: self replay diverged; the log does not carry the policy's full input")
			return 1
		}
		return 0
	}

	prof, err := replay.NewProfiler(l.Meta)
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}
	alts, err := replay.Alternates(l)
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return 1
	}
	var sums []*replay.PolicySummary
	for _, a := range alts {
		sums = append(sums, replay.Evaluate(l, a.Name, a.Ctrl, prof, *top))
	}
	var gridSums []*replay.PolicySummary
	for _, g := range replay.ThresholdGrid(l, offsets) {
		gridSums = append(gridSums, replay.Evaluate(l, g.Name, g.Ctrl, prof, *top))
	}
	writePolicyTable(out, l, sums, gridSums)
	for _, s := range sums {
		writeTopRegret(out, s)
	}

	if *routers {
		if err := writeRouterTable(out, l); err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeSpanBaseline(out, *spansPath); err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
	}
	if *perfettoPath != "" {
		f, err := os.Create(*perfettoPath)
		if err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
		annotated := append(append([]*replay.PolicySummary(nil), sums...), gridSums...)
		if err := replay.WritePerfetto(f, l.Meta, annotated); err != nil {
			f.Close()
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(errw, "error:", err)
			return 1
		}
		fmt.Fprintf(out, "Regret annotation track written to %s (load next to the run's traces in ui.perfetto.dev)\n", *perfettoPath)
	}
	return 0
}

// parseOffsets parses the -grid flag: a comma-separated float list.
func parseOffsets(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-grid %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeOverview(w io.Writer, l *replay.Log) {
	horizon := time.Duration(0)
	for _, d := range l.Decisions {
		if d.At > horizon {
			horizon = d.At
		}
	}
	fmt.Fprintf(w, "Decision log: %d controller ticks, %d router picks over %s (schema %s)\n",
		l.Ticks(), l.Routes(), fmtDur(horizon), l.Meta.Schema)
	fmt.Fprintf(w, "Deployed: %s  seed=%d  servers=%d (%d low-priority)  telemetry=%gs\n",
		l.Meta.Policy, l.Meta.Seed, l.Meta.Servers, l.Meta.LPServers, l.Meta.TelemetrySec)
	if l.Meta.Serve {
		fmt.Fprintf(w, "Serve mode: router=%s\n", l.Meta.Router)
	}
	fmt.Fprintln(w)
}

// writeFidelity replays the deployed configuration against its own log and
// reports reproduction — the check that proves the log carries the
// policy's full input.
func writeFidelity(w io.Writer, l *replay.Log) (tickDiv, routeDiv int, err error) {
	tickDiv, ticks, err := replay.SelfCheck(l)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(w, "Self-replay fidelity: %d/%d ticks reproduce the recorded locks", ticks-tickDiv, ticks)
	routes := l.Routes()
	if routes > 0 {
		_, sum, rerr := replay.ReplayRoutes(l, l.Meta.Router)
		if rerr != nil {
			return 0, 0, rerr
		}
		routeDiv = sum.Diverged
		fmt.Fprintf(w, ", %d/%d picks reproduce the recorded routes", routes-routeDiv, routes)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	return tickDiv, routeDiv, nil
}

func writePolicyTable(w io.Writer, l *replay.Log, sums, gridSums []*replay.PolicySummary) {
	fmt.Fprintln(w, "Counterfactual cap policies (priced on recorded snapshots; positive latency = deployed ran slower):")
	fmt.Fprintf(w, "%-18s %14s %13s %11s %11s %11s %9s\n",
		"policy", "diverged", "headroom kJ", "saved kJ", "latency s", "brake-risk", "J/req")
	row := func(s *replay.PolicySummary) {
		fmt.Fprintf(w, "%-18s %7d/%-6d %13.2f %11.2f %11.1f %11d %9.1f\n",
			s.Name, s.Diverged, s.Ticks, s.HeadroomJ/1e3, s.SavedJ/1e3,
			s.LatencyS, s.BrakeRiskTicks, s.EnergyPerReqJ)
	}
	for _, s := range sums {
		row(s)
	}
	if len(gridSums) > 0 {
		fmt.Fprintf(w, "Threshold grid around deployed T1=%.2f T2=%.2f:\n", l.Meta.Spec.T1, l.Meta.Spec.T2)
		for _, s := range gridSums {
			row(s)
		}
	}
	fmt.Fprintln(w)
}

// writeTopRegret renders one alternate's highest-regret ticks — where the
// deployed configuration left the most headroom unreclaimed or the
// alternate would have saved the most energy.
func writeTopRegret(w io.Writer, s *replay.PolicySummary) {
	if len(s.TopRegret) == 0 {
		return
	}
	fmt.Fprintf(w, "Top %d regret ticks vs %s:\n", len(s.TopRegret), s.Name)
	fmt.Fprintf(w, "%10s %10s %15s %15s %10s %11s %11s %6s\n",
		"seq", "t", "rec LP/HP MHz", "alt LP/HP MHz", "regret J", "latency s", "est ΔW", "risk")
	for _, r := range s.TopRegret {
		risk := ""
		if r.BrakeRisk {
			risk = "brake"
		}
		fmt.Fprintf(w, "%10d %10s %7s/%-7s %7s/%-7s %10.1f %11.2f %11.1f %6s\n",
			r.Seq, fmtDur(r.At), fmtMHz(r.RecLP), fmtMHz(r.RecHP),
			fmtMHz(r.AltLP), fmtMHz(r.AltHP), r.Score(), r.LatencyS, r.DeltaW, risk)
	}
	fmt.Fprintln(w)
}

func writeRouterTable(w io.Writer, l *replay.Log) error {
	if l.Routes() == 0 {
		return nil
	}
	fmt.Fprintln(w, "Router policies over recorded candidate snapshots:")
	fmt.Fprintf(w, "%-18s %14s %13s %10s %13s\n",
		"router", "diverged", "excess load", "mean KV", "capped picks")
	for _, name := range serve.RouterNames() {
		_, sum, err := replay.ReplayRoutes(l, name)
		if err != nil {
			return err
		}
		deployed := ""
		if name == l.Meta.Router {
			deployed = "  (deployed)"
		}
		fmt.Fprintf(w, "%-18s %7d/%-6d %13.2f %10.2f %13d%s\n",
			sum.Name, sum.Diverged, sum.Routes, sum.MeanExcessLoad, sum.MeanChosenKV, sum.CappedPicks, deployed)
	}
	fmt.Fprintln(w)
	return nil
}

// writeSpanBaseline folds the run's span trace into the recorded
// per-request baseline the regret estimates scale against.
func writeSpanBaseline(w io.Writer, path string) error {
	st, err := replay.LoadSpanStats(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Recorded request baseline (%s): %d requests, mean TTFT %.3fs\n",
		path, st.Requests, st.MeanTTFTSec)
	fmt.Fprintf(w, "  cap slowdown %+.1f request-s (%+.3f s/req), energy %.2f kJ (%.1f J/req)\n",
		st.TotalCapSec, st.MeanCapSec, st.TotalEnergyJ/1e3, st.MeanEnergyJ)
	fmt.Fprintln(w)
	return nil
}

// fmtDur renders a simulated timestamp compactly, matching the rest of the
// tooling (seconds rounded).
func fmtDur(d time.Duration) string {
	return d.Round(time.Second).String()
}

// fmtMHz renders a pool lock, with uncapped as "-".
func fmtMHz(mhz float64) string {
	if mhz == 0 {
		return "-"
	}
	return strconv.FormatFloat(mhz, 'f', 0, 64)
}

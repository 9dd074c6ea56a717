package experiments

import (
	"fmt"
	"strings"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/replay"
	"polca/internal/serve"
)

func init() {
	register("figregret", "Extension: counterfactual replay of a recorded POLCA serve day with per-decision regret", runFigRegret)
}

// FigRegretPolicyRow is one alternate cap policy replayed over the
// recorded day.
type FigRegretPolicyRow struct {
	Policy   string
	Diverged int
	Ticks    int
	// HeadroomKJ is energy the deployed config left unreclaimed vs this
	// alternate on safe ticks; SavedKJ is energy this alternate would have
	// reclaimed by capping deeper; LatencyS is busy-server execution
	// seconds the deployed config burned relative to this alternate
	// (negative = the alternate would have burned more).
	HeadroomKJ float64
	SavedKJ    float64
	LatencyS   float64
	BrakeRisk  int
	PerReqJ    float64
}

// FigRegretRouterRow is one router policy replayed over the recorded
// candidate snapshots.
type FigRegretRouterRow struct {
	Router      string
	Diverged    int
	Routes      int
	ExcessLoad  float64
	MeanKV      float64
	CappedPicks int
}

// FigRegretData carries the replayed day.
type FigRegretData struct {
	Ticks, Routes int
	// SelfDiverged and RouteSelfDiverged must be zero: the deployed
	// configuration replayed against its own log reproduces every decision.
	SelfDiverged      int
	RouteSelfDiverged int
	Policies          []FigRegretPolicyRow
	Routers           []FigRegretRouterRow
}

// runFigRegret records one POLCA serve-mode day (guard, watchdog, and a
// chaos scenario armed, so the log holds capped ticks, outage epochs, and
// watchdog engagement) with the decision recorder attached, then replays
// the log — no re-simulation — against the standard alternates, a T1/T2
// threshold sweep, and every registered router policy, pricing where the
// deployed configuration left headroom unreclaimed or burned latency.
func runFigRegret(o Options) (Result, error) {
	horizon := horizonFromDays(1)
	faultSpec := "tdrop=0.1,crash=6h+45,kill=2@8h+1h"
	if o.Quick {
		horizon = 3 * time.Hour
		faultSpec = "tdrop=0.1,crash=30m+45,kill=1@90m+30m"
	}

	cfg := cluster.Production()
	cfg.BaseServers = o.RowServers
	cfg.AddedFraction = 0.30
	cfg.Seed = o.Seed
	// Round-robin is the stateful baseline: its replays prove cursor
	// reproduction, and the router comparison shows what queue- and
	// KV-aware placement would have picked on the same snapshots.
	cfg.Serve = &serve.Config{Router: "round-robin"}
	fs, err := faults.Parse(faultSpec)
	if err != nil {
		return Result{}, err
	}
	cfg.Faults = fs
	// The hardened profile's controller half; the serving half is this
	// day's own: failover without shedding.
	ctrl := harden(&cfg, polca.New(polca.DefaultConfig()))
	cfg.ServeRetries = 3
	cfg.ServeRetryBackoff = 2 * time.Second

	pspec, gspec, err := polca.DescribeController(ctrl)
	if err != nil {
		return Result{}, err
	}
	rec := obs.NewDecisionRecorder()
	rec.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Spec, m.Guard, m.Seed = pspec, gspec, cfg.Seed
	})
	eng, plan, err := productionRun(cfg, horizon)
	if err != nil {
		return Result{}, err
	}
	// The decision recorder must ride the observer, so this run bypasses
	// the sweep cache (which strips observers down to metrics).
	eng.SetObserver(&obs.Observer{Decisions: rec})
	row, err := cluster.NewRow(eng, cfg, ctrl)
	if err != nil {
		return Result{}, err
	}
	// The day is a row simulation like a sweep point's, so it holds one of
	// the pass's tokens while it runs.
	o.tokens <- struct{}{}
	row.Run(plan)
	<-o.tokens

	// Round-trip through the wire format: the experiment replays exactly
	// what polca-replay would read, not the in-memory recorder state.
	var buf strings.Builder
	if err := rec.WriteJSONL(&buf); err != nil {
		return Result{}, err
	}
	l, err := replay.Load(strings.NewReader(buf.String()))
	if err != nil {
		return Result{}, err
	}

	data := FigRegretData{Ticks: l.Ticks(), Routes: l.Routes()}
	data.SelfDiverged, _, err = replay.SelfCheck(l)
	if err != nil {
		return Result{}, err
	}
	_, selfRoutes, err := replay.ReplayRoutes(l, l.Meta.Router)
	if err != nil {
		return Result{}, err
	}
	data.RouteSelfDiverged = selfRoutes.Diverged

	prof, err := replay.NewProfiler(l.Meta)
	if err != nil {
		return Result{}, err
	}
	alts, err := replay.Alternates(l)
	if err != nil {
		return Result{}, err
	}
	alts = append(alts, replay.ThresholdGrid(l, []float64{-0.05, 0, 0.05})...)
	for _, a := range alts {
		s := replay.Evaluate(l, a.Name, a.Ctrl, prof, 0)
		data.Policies = append(data.Policies, FigRegretPolicyRow{
			Policy: s.Name, Diverged: s.Diverged, Ticks: s.Ticks,
			HeadroomKJ: s.HeadroomJ / 1e3, SavedKJ: s.SavedJ / 1e3,
			LatencyS: s.LatencyS, BrakeRisk: s.BrakeRiskTicks, PerReqJ: s.EnergyPerReqJ,
		})
	}
	for _, name := range serve.RouterNames() {
		_, sum, err := replay.ReplayRoutes(l, name)
		if err != nil {
			return Result{}, err
		}
		data.Routers = append(data.Routers, FigRegretRouterRow{
			Router: sum.Name, Diverged: sum.Diverged, Routes: sum.Routes,
			ExcessLoad: sum.MeanExcessLoad, MeanKV: sum.MeanChosenKV,
			CappedPicks: sum.CappedPicks,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Recorded day: %s over %s, %d controller ticks, %d router picks (faults: %s)\n",
		l.Meta.Policy, horizon, data.Ticks, data.Routes, faultSpec)
	fmt.Fprintf(&b, "Self-replay fidelity: %d/%d ticks and %d/%d picks reproduce the recorded decisions\n\n",
		data.Ticks-data.SelfDiverged, data.Ticks, data.Routes-data.RouteSelfDiverged, data.Routes)
	b.WriteString("Counterfactual cap policies (priced on recorded snapshots; positive latency = deployed ran slower):\n")
	var cells [][]string
	for _, r := range data.Policies {
		cells = append(cells, []string{
			r.Policy, fmt.Sprintf("%d/%d", r.Diverged, r.Ticks),
			f2(r.HeadroomKJ), f2(r.SavedKJ), fmt.Sprintf("%.1f", r.LatencyS),
			fmt.Sprintf("%d", r.BrakeRisk), fmt.Sprintf("%.1f", r.PerReqJ),
		})
	}
	b.WriteString(table([]string{
		"policy", "diverged", "headroom kJ", "saved kJ", "latency s", "brake-risk", "J/req",
	}, cells))
	b.WriteString("\nRouter policies over recorded candidate snapshots:\n")
	cells = cells[:0]
	for _, r := range data.Routers {
		name := r.Router
		if name == l.Meta.Router {
			name += " (deployed)"
		}
		cells = append(cells, []string{
			name, fmt.Sprintf("%d/%d", r.Diverged, r.Routes),
			f2(r.ExcessLoad), f2(r.MeanKV), fmt.Sprintf("%d", r.CappedPicks),
		})
	}
	b.WriteString(table([]string{
		"router", "diverged", "excess load", "mean KV", "capped picks",
	}, cells))
	b.WriteString("\nheadroom = energy the deployed config refused while the row had safe margin;\nsaved = energy the alternate would have reclaimed capping deeper; brake-risk =\nticks where reclaiming the headroom risks tripping the brake the deployed\nconfig respected.\n")
	return Result{Text: b.String(), Data: data}, nil
}

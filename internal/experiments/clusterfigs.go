package experiments

import (
	"fmt"
	"strings"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/polca"
	"polca/internal/render"
	"polca/internal/scenario"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

func init() {
	register("fit", "§6.4: Synthetic trace fit (MAPE) and trained thresholds", runFit)
	register("tab4", "Table 4: LLM cluster power usage in production", runTable4)
	register("fig13", "Figure 13: Threshold space search", runFig13)
	register("fig14", "Figure 14: Server throughput under POLCA", runFig14)
	register("fig15a", "Figure 15a: T1 capping frequency sweep", runFig15a)
	register("fig15b", "Figure 15b: Impact of the low-priority server fraction", runFig15b)
	register("fig16", "Figure 16: Row power utilization, default vs +30% servers", runFig16)
	register("fig17", "Figure 17: Policy comparison at 30% oversubscription", runFig17)
	register("fig18", "Figure 18: Power brake events per policy", runFig18)
}

// rowSpec identifies one cluster simulation for caching.
type rowSpec struct {
	policy     string
	pc         polca.Config // the "polca" policy's config; zero = polca.DefaultConfig()
	added      float64
	intensity  float64
	lpFrac     float64
	days       int
	oobLatency time.Duration // OOB actuation latency, 0 = Table 2's 40 s

	// Fault-experiment knobs (figfault, figservefault); both zero for the
	// paper figures, which keeps those rows byte-identical to the
	// fault-free simulator.
	faults   string // canonical faults.Spec DSL, "" = none
	hardened bool   // run under the hardened profile (harden, runRowSpec)

	// serveRouter, when non-empty, switches the row to the request-level
	// serving backend with this routing policy (figserve); "" keeps the
	// slot model, leaving every paper figure byte-identical.
	serveRouter string

	// Scenario knob (figscenario): a workload scenario name or .scn path
	// that replaces the fitted Table 6 arrivals with generated cohort
	// traffic (classes, shed ranks, and the request trace all come from the
	// scenario). "" keeps every other experiment on the legacy path.
	scenario string
}

// policyNames are the figures' display names of the policies they run.
var policyNames = map[string]string{
	"polca": "POLCA", "1tl": "1-Thresh-Low-Pri", "1ta": "1-Thresh-All", "nocap": "No-cap",
}

// name is the spec's display name: its policy's, suffixed for the
// hardened profile.
func (s rowSpec) name() string {
	if s.hardened {
		return policyNames[s.policy] + "-hardened"
	}
	return policyNames[s.policy]
}

// harden applies the hardened profile's controller half to a row: the
// telemetry guard around ctrl, the deadman watchdog, bounded OOB retries
// with backoff, and stale-command drops. It returns the guarded controller.
func harden(cfg *cluster.RowConfig, ctrl cluster.Controller) cluster.Controller {
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	return polca.NewGuard(ctrl, polca.DefaultGuardConfig())
}

// canonical resolves the fields whose zero value means the default to
// that default, so specs that configure the same simulation are equal:
// pc to polca.DefaultConfig(), and lpFrac and oobLatency to
// cluster.Production()'s low-priority fraction and OOB latency.
func (s rowSpec) canonical() rowSpec {
	if s.pc == (polca.Config{}) {
		s.pc = polca.DefaultConfig()
	}
	prod := cluster.Production()
	if s.lpFrac <= 0 {
		s.lpFrac = prod.LowPriorityFraction
	}
	if s.oobLatency <= 0 {
		s.oobLatency = prod.OOBLatency
	}
	return s
}

// buildController instantiates the policy named in the spec.
func buildController(s rowSpec) (cluster.Controller, error) {
	if s.policy == "ladder3" {
		return polca.NewLadder("3-rung", []polca.Rung{
			{Name: "t1", Trigger: 0.76, Margin: 0.05, LowMHz: 1335},
			{Name: "t2", Trigger: 0.83, Margin: 0.05, LowMHz: 1200},
			{Name: "t3.lp", Trigger: 0.89, Margin: 0.05, LowMHz: 1050},
			{Name: "t3.hp", Trigger: 0.89, Margin: 0.05, HighMHz: 1305, Delay: 1},
		})
	}
	return polca.NewNamed(s.policy, s.pc)
}

// runRowSpec executes one row simulation of a canonical spec on a private
// engine; simulateRow (parallel.go) wraps it with the singleflight cache.
func runRowSpec(o Options, s rowSpec) (*cluster.Metrics, error) {
	cfg := cluster.Production()
	cfg.BaseServers = o.RowServers
	cfg.AddedFraction = s.added
	cfg.PowerIntensity = s.intensity
	cfg.LowPriorityFraction = s.lpFrac
	cfg.Seed = o.Seed
	cfg.OOBLatency = s.oobLatency
	if s.faults != "" {
		fs, err := faults.Parse(s.faults)
		if err != nil {
			return nil, err
		}
		cfg.Faults = fs
	}
	if s.serveRouter != "" {
		cfg.Serve = &serve.Config{Router: s.serveRouter}
	}
	var spec scenario.Spec
	if s.scenario != "" {
		var err error
		if spec, err = scenario.Load(s.scenario); err != nil {
			return nil, err
		}
		// The cohorts' analytic moments become the class table admission
		// plans on, and their SLO classes pin the serve-mode shed ranks.
		cfg.Classes = spec.Classes()
		cfg.ShedRanks = spec.ShedRanks()
	}

	ctrl, err := buildController(s)
	if err != nil {
		return nil, err
	}
	if s.hardened {
		ctrl = harden(&cfg, ctrl)
		// The serving half: failover retries, class shedding, circuit
		// breaking and watchdog drain. The slot backend reads none of them.
		cfg.ServeRetries = 3
		cfg.ServeClassShed = true
		cfg.ServeCircuitSheds = 10
		cfg.WatchdogDrain = true
	}
	horizon := horizonFromDays(s.days)
	var eng *sim.Engine
	var plan trace.RatePlan
	if s.scenario != "" {
		eng = sim.New(cfg.Seed)
	} else if eng, plan, err = productionRun(cfg, horizon); err != nil {
		return nil, err
	}
	// Metrics only: per-request trace events from dozens of grid points
	// would flood a sweep-level trace, but aggregate counters stay useful.
	eng.SetObserver(o.Obs.MetricsOnly())
	row, err := cluster.NewRow(eng, cfg, ctrl)
	if err != nil {
		return nil, err
	}
	if s.scenario != "" {
		// Generation draws on the engine's named scenario streams, so every
		// policy arm of a sweep sees the identical request trace.
		reqs, err := scenario.Generate(spec, horizon, float64(cfg.Servers())/float64(spec.Basis), eng.Rand)
		if err != nil {
			return nil, err
		}
		return row.RunRequests(reqs, horizon), nil
	}
	return row.Run(plan), nil
}

// latencies is a run's latency series per priority, sorted ascending.
type latencies [2][]float64

// sortedLatencies returns the row's latency series. The sweep cache
// sorted them in place before it published the row (simulateRowCached),
// so every figure reads the one sorted series without copying it.
func sortedLatencies(m *cluster.Metrics) latencies {
	return latencies{workload.Low: m.LatencySec[workload.Low], workload.High: m.LatencySec[workload.High]}
}

// p returns the p-th percentile of the priority's latencies.
func (l latencies) p(pri workload.Priority, p float64) float64 {
	return stats.PercentileSorted(l[pri], p)
}

// norm returns each priority's p-th percentile normalized to base's.
func (l latencies) norm(base latencies, p float64) map[workload.Priority]float64 {
	return map[workload.Priority]float64{
		workload.Low:  l.p(workload.Low, p) / base.p(workload.Low, p),
		workload.High: l.p(workload.High, p) / base.p(workload.High, p),
	}
}

// --- §6.4 fit ---

// FitData reports the synthetic-trace validation.
type FitData struct {
	// ModelMAPE is the analytic check: the plan's predicted utilization vs
	// the reference (small by construction).
	ModelMAPE float64
	// SimMAPE is the paper's end-to-end criterion: the *simulated* row
	// power timeseries vs the reference it was fitted to, at 5-minute
	// granularity (§6.4 accepts <= 3%).
	SimMAPE    float64
	Trained    polca.Config
	MaxRise40s float64
}

func runFit(o Options) (Result, error) {
	cfg := cluster.Production()
	cfg.BaseServers = o.RowServers
	ref := trace.ProductionInference().Reference(horizonFromDays(o.TrainDays), sim.New(o.Seed).Rand("ref"))
	plan, err := trace.FitArrivals(ref, cfg.Shape(), 5*time.Minute)
	if err != nil {
		return Result{}, err
	}
	modelMAPE, err := trace.ValidateFit(ref, plan, cfg.Shape())
	if err != nil {
		return Result{}, err
	}

	// End-to-end: replay the fitted trace through the simulator and
	// compare the resulting power series against the reference.
	m, err := simulateRow(o, rowSpec{policy: "nocap", added: 0, intensity: 1, days: o.TrainDays})
	if err != nil {
		return Result{}, err
	}
	bucket := 5 * time.Minute
	simSeries := m.Util.Downsample(bucket)
	refSeries := ref.Downsample(bucket)
	n := simSeries.Len()
	if refSeries.Len() < n {
		n = refSeries.Len()
	}
	simMAPE, err := stats.MAPE(refSeries.Values[:n], simSeries.Values[:n])
	if err != nil {
		return Result{}, err
	}

	trained := polca.TrainThresholds(ref, cfg.BrakeUtil, cfg.OOBLatency)
	data := FitData{ModelMAPE: modelMAPE, SimMAPE: simMAPE, Trained: trained, MaxRise40s: ref.MaxRise(40 * time.Second)}
	text := fmt.Sprintf("Analytic fit MAPE (plan vs reference):          %s\n", pct(modelMAPE)) +
		fmt.Sprintf("End-to-end MAPE (simulated power vs reference): %s (paper accepts <= 3%%)\n", pct(simMAPE)) +
		fmt.Sprintf("Max reference rise in 40s (OOB latency): %s\n", pct(data.MaxRise40s)) +
		fmt.Sprintf("Trained thresholds from first %d day(s): T1=%s T2=%s\n", o.TrainDays, pct(trained.T1), pct(trained.T2))
	return Result{Text: text, Data: data}, nil
}

// --- Table 4 ---

// Table4Data holds both cluster comparisons.
type Table4Data struct {
	Training  cluster.ClusterComparison
	Inference cluster.ClusterComparison
}

func runTable4(o Options) (Result, error) {
	trainDays := 1
	trainUtil, err := cluster.SimulateTraining(cluster.ProductionTraining(), horizonFromDays(trainDays), sim.New(o.Seed).Rand("train-row"))
	if err != nil {
		return Result{}, err
	}
	m, err := simulateRow(o, rowSpec{policy: "nocap", added: 0, intensity: 1, days: o.SweepDays})
	if err != nil {
		return Result{}, err
	}
	data := Table4Data{
		Training:  cluster.SummarizeUtilization("training", trainUtil),
		Inference: cluster.SummarizeUtilization("inference", m.Util),
	}
	cells := [][]string{
		{"Peak power utilization", pct(data.Training.PeakUtilization), pct(data.Inference.PeakUtilization)},
		{"Mean power utilization", pct(data.Training.MeanUtilization), pct(data.Inference.MeanUtilization)},
		{"Max. power spike in 2s", pct(data.Training.MaxSpike2s), pct(data.Inference.MaxSpike2s)},
		{"Max. power spike in 40s", pct(data.Training.MaxSpike40s), pct(data.Inference.MaxSpike40s)},
		{"Power headroom", pct(1 - data.Training.PeakUtilization), pct(1 - data.Inference.PeakUtilization)},
	}
	return Result{Text: table([]string{"Metric", "Training", "Inference"}, cells), Data: data}, nil
}

// --- Figure 13 ---

// Fig13Point is one (threshold combo, added fraction) outcome.
type Fig13Point struct {
	T1, T2  float64
	Added   float64
	Brakes  int
	NormP50 map[workload.Priority]float64
	NormP99 map[workload.Priority]float64
}

// Fig13Data carries the sweep plus the derived safe-added frontier.
type Fig13Data struct {
	Points []Fig13Point
	// MaxSafeAdded is the largest tested added-fraction with zero brakes
	// per combo, keyed "75-85" style.
	MaxSafeAdded map[string]float64
}

func comboKey(t1, t2 float64) string {
	return fmt.Sprintf("%.0f-%.0f", t1*100, t2*100)
}

func runFig13(o Options) (Result, error) {
	combos := [][2]float64{{0.75, 0.85}, {0.80, 0.89}, {0.85, 0.95}}
	added := []float64{0, 0.10, 0.20, 0.25, 0.30, 0.35, 0.40, 0.50}
	if o.Quick {
		added = []float64{0, 0.30}
	}
	specs := make([]rowSpec, 0, len(combos)*len(added))
	for _, c := range combos {
		pc := polca.DefaultConfig()
		pc.T1, pc.T2 = c[0], c[1]
		for _, a := range added {
			specs = append(specs, rowSpec{policy: "polca", pc: pc, added: a, intensity: 1, days: o.SweepDays})
		}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	data := Fig13Data{MaxSafeAdded: map[string]float64{}}
	for ci, c := range combos {
		var base latencies
		for ai, a := range added {
			m := ms[ci*len(added)+ai]
			lat := sortedLatencies(m)
			if a == 0 {
				base = lat
			}
			pt := Fig13Point{
				T1: c[0], T2: c[1], Added: a, Brakes: m.BrakeEvents,
				NormP50: lat.norm(base, 50), NormP99: lat.norm(base, 99),
			}
			data.Points = append(data.Points, pt)
			if m.BrakeEvents == 0 {
				key := comboKey(c[0], c[1])
				if a > data.MaxSafeAdded[key] {
					data.MaxSafeAdded[key] = a
				}
			}
		}
	}
	var cells [][]string
	for _, p := range data.Points {
		cells = append(cells, []string{
			comboKey(p.T1, p.T2), pct(p.Added), fmt.Sprintf("%d", p.Brakes),
			f3(p.NormP50[workload.Low]), f3(p.NormP99[workload.Low]),
			f3(p.NormP50[workload.High]), f3(p.NormP99[workload.High]),
		})
	}
	text := table([]string{"T1-T2", "Added", "Brakes", "LP p50", "LP p99", "HP p50", "HP p99"}, cells)
	text += "\nMax added servers without power brakes:\n"
	for _, c := range combos {
		key := comboKey(c[0], c[1])
		text += fmt.Sprintf("  %s: %s\n", key, pct(data.MaxSafeAdded[key]))
	}
	return Result{Text: text, Data: data}, nil
}

// --- Figure 14 ---

// Fig14Point is throughput at one added fraction.
type Fig14Point struct {
	Added          float64
	NormThroughput map[workload.Priority]float64
}

func runFig14(o Options) (Result, error) {
	added := []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}
	if o.Quick {
		added = []float64{0, 0.30}
	}
	specs := make([]rowSpec, 0, len(added))
	for _, a := range added {
		specs = append(specs, rowSpec{policy: "polca", added: a, intensity: 1, days: o.SweepDays})
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	var pts []Fig14Point
	var basePerServer map[workload.Priority]float64
	for i, a := range added {
		m := ms[i]
		perServer := map[workload.Priority]float64{}
		for _, pri := range []workload.Priority{workload.Low, workload.High} {
			perServer[pri] = m.Throughput(pri)
		}
		if a == 0 {
			basePerServer = perServer
		}
		pt := Fig14Point{Added: a, NormThroughput: map[workload.Priority]float64{}}
		for pri, v := range perServer {
			pt.NormThroughput[pri] = v / basePerServer[pri]
		}
		pts = append(pts, pt)
	}
	var cells [][]string
	for _, p := range pts {
		cells = append(cells, []string{pct(p.Added), f3(p.NormThroughput[workload.Low]), f3(p.NormThroughput[workload.High])})
	}
	return Result{
		Text: table([]string{"Added", "LP throughput", "HP throughput"}, cells),
		Data: pts,
	}, nil
}

// --- Figure 15a ---

// Fig15aPoint is the latency impact of one T1 capping frequency.
type Fig15aPoint struct {
	LPBaseMHz float64
	NormP50   map[workload.Priority]float64
	NormP99   map[workload.Priority]float64
}

func runFig15a(o Options) (Result, error) {
	freqs := []float64{1335, 1275, 1215, 1155}
	if o.Quick {
		freqs = []float64{1275, 1155}
	}
	specs := []rowSpec{{policy: "nocap", added: 0.30, intensity: 1, days: o.SweepDays}}
	for _, f := range freqs {
		pc := polca.DefaultConfig()
		pc.LPBaseMHz = f
		specs = append(specs, rowSpec{policy: "polca", pc: pc, added: 0.30, intensity: 1, days: o.SweepDays})
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	base := sortedLatencies(ms[0])
	var pts []Fig15aPoint
	for i, f := range freqs {
		lat := sortedLatencies(ms[i+1])
		pts = append(pts, Fig15aPoint{LPBaseMHz: f, NormP50: lat.norm(base, 50), NormP99: lat.norm(base, 99)})
	}
	var cells [][]string
	for _, p := range pts {
		cells = append(cells, []string{
			fmt.Sprintf("%.0f", p.LPBaseMHz),
			f3(p.NormP50[workload.Low]), f3(p.NormP99[workload.Low]),
			f3(p.NormP50[workload.High]), f3(p.NormP99[workload.High]),
		})
	}
	return Result{
		Text: table([]string{"T1 freq (MHz)", "LP p50", "LP p99", "HP p50", "HP p99"}, cells),
		Data: pts,
	}, nil
}

// --- Figure 15b ---

// Fig15bPoint is the latency impact at one low-priority server share.
type Fig15bPoint struct {
	LPFraction float64
	Brakes     int
	NormP50    map[workload.Priority]float64
	NormP99    map[workload.Priority]float64
}

func runFig15b(o Options) (Result, error) {
	fracs := []float64{0.25, 0.50, 0.75}
	if o.Quick {
		fracs = []float64{0.25, 0.75}
	}
	specs := make([]rowSpec, 0, 2*len(fracs))
	for _, lp := range fracs {
		specs = append(specs,
			rowSpec{policy: "polca", added: 0, intensity: 1, lpFrac: lp, days: o.SweepDays},
			rowSpec{policy: "polca", added: 0.30, intensity: 1, lpFrac: lp, days: o.SweepDays})
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	var pts []Fig15bPoint
	for i, lp := range fracs {
		m := ms[2*i+1]
		base, lat := sortedLatencies(ms[2*i]), sortedLatencies(m)
		pts = append(pts, Fig15bPoint{
			LPFraction: lp, Brakes: m.BrakeEvents,
			NormP50: lat.norm(base, 50), NormP99: lat.norm(base, 99),
		})
	}
	var cells [][]string
	for _, p := range pts {
		cells = append(cells, []string{
			pct(p.LPFraction), fmt.Sprintf("%d", p.Brakes),
			f3(p.NormP50[workload.Low]), f3(p.NormP99[workload.Low]),
			f3(p.NormP50[workload.High]), f3(p.NormP99[workload.High]),
		})
	}
	return Result{
		Text: table([]string{"LP servers", "Brakes", "LP p50", "LP p99", "HP p50", "HP p99"}, cells),
		Data: pts,
	}, nil
}

// --- Figure 16 ---

// Fig16Data holds both utilization series, downsampled to one minute for
// storage (the raw 2 s series of a 5-week run is ~1.5M samples), plus the
// 5-minute views the paper plots and the raw-resolution headline numbers.
type Fig16Data struct {
	Default   stats.Series // 1-minute means
	Oversub   stats.Series
	Default5m stats.Series
	Oversub5m stats.Series
	// Peak2s are the raw 2 s-resolution peaks of each series.
	DefaultPeak2s float64
	OversubPeak2s float64
}

func runFig16(o Options) (Result, error) {
	ms, err := simulateRows(o, []rowSpec{
		{policy: "polca", added: 0, intensity: 1, days: o.EvalDays},
		{policy: "polca", added: 0.30, intensity: 1, days: o.EvalDays},
	})
	if err != nil {
		return Result{}, err
	}
	base, over := ms[0], ms[1]
	data := Fig16Data{
		Default:       base.Util.Downsample(time.Minute),
		Oversub:       over.Util.Downsample(time.Minute),
		Default5m:     base.Util.Downsample(5 * time.Minute),
		Oversub5m:     over.Util.Downsample(5 * time.Minute),
		DefaultPeak2s: base.Util.Peak(),
		OversubPeak2s: over.Util.Peak(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %10s %10s\n", "Series", "mean", "peak(2s)", "peak(5min)")
	fmt.Fprintf(&b, "%-26s %10s %10s %10s\n", "default servers", pct(data.Default.Mean()), pct(data.DefaultPeak2s), pct(data.Default5m.Peak()))
	fmt.Fprintf(&b, "%-26s %10s %10s %10s\n", "30% more servers", pct(data.Oversub.Mean()), pct(data.OversubPeak2s), pct(data.Oversub5m.Peak()))
	fmt.Fprintf(&b, "\n%s\n", render.Lines(map[string]stats.Series{
		"default":      data.Default5m,
		"+30% servers": data.Oversub5m,
	}, render.ChartOptions{
		Title: "Row power utilization (5-minute averages)",
		YMin:  0.3, YMax: 1.05, Height: 10, YLabel: "fraction of provisioned power",
	}))
	fmt.Fprintf(&b, "Daily peak utilization (5-min averages):\n")
	days := int(data.Default5m.Duration() / (24 * time.Hour))
	for d := 0; d < days; d++ {
		from := time.Duration(d) * 24 * time.Hour
		to := from + 24*time.Hour
		fmt.Fprintf(&b, "  day %2d: default %s, +30%% %s\n", d+1,
			pct(data.Default5m.Slice(from, to).Peak()), pct(data.Oversub5m.Slice(from, to).Peak()))
	}
	return Result{Text: b.String(), Data: data}, nil
}

// --- Figures 17 & 18 ---

// Fig17Row is one policy's normalized latency metrics (POLCA at default
// intensity = 1.0).
type Fig17Row struct {
	Policy    string
	Intensity float64
	Brakes    int
	NormP50   map[workload.Priority]float64
	NormP99   map[workload.Priority]float64
	NormMax   map[workload.Priority]float64
}

// fig17Rows runs the four policies at both intensities (shared by fig17
// and fig18 through the simulation cache).
func fig17Rows(o Options) ([]Fig17Row, error) {
	policies := []string{"polca", "1tl", "1ta", "nocap"}
	intensities := []float64{1.0, 1.05}
	specs := make([]rowSpec, 0, len(intensities)*len(policies))
	for _, in := range intensities {
		for _, p := range policies {
			specs = append(specs, rowSpec{policy: p, added: 0.30, intensity: in, days: o.EvalDays})
		}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return nil, err
	}
	var ref latencies
	var rows []Fig17Row
	for i, s := range specs {
		m := ms[i]
		lat := sortedLatencies(m)
		if s.policy == "polca" && s.intensity == 1.0 {
			ref = lat
		}
		rows = append(rows, Fig17Row{
			Policy: s.name(), Intensity: s.intensity, Brakes: m.BrakeEvents,
			NormP50: lat.norm(ref, 50), NormP99: lat.norm(ref, 99), NormMax: lat.norm(ref, 100),
		})
	}
	return rows, nil
}

func runFig17(o Options) (Result, error) {
	rows, err := fig17Rows(o)
	if err != nil {
		return Result{}, err
	}
	var cells [][]string
	for _, r := range rows {
		label := r.Policy
		if r.Intensity > 1 {
			label += fmt.Sprintf("+%.0f%%", (r.Intensity-1)*100)
		}
		cells = append(cells, []string{
			label,
			f3(r.NormP50[workload.Low]), f3(r.NormP50[workload.High]),
			f3(r.NormP99[workload.Low]), f3(r.NormP99[workload.High]),
			f3(r.NormMax[workload.Low]), f3(r.NormMax[workload.High]),
		})
	}
	text := table([]string{"Policy", "LP p50", "HP p50", "LP p99", "HP p99", "LP max", "HP max"}, cells)
	var bars []render.Bar
	for _, r := range rows {
		label := r.Policy
		if r.Intensity > 1 {
			label += "+5%"
		}
		bars = append(bars, render.Bar{Label: label, Value: r.NormP99[workload.Low]})
	}
	text += "\n" + render.Bars(bars, render.BarOptions{
		Title: "Low-priority p99 latency (normalized to POLCA; lower is better)", Reference: 1.0,
	})
	return Result{Text: text, Data: rows}, nil
}

func runFig18(o Options) (Result, error) {
	rows, err := fig17Rows(o)
	if err != nil {
		return Result{}, err
	}
	var cells [][]string
	for _, r := range rows {
		label := r.Policy
		if r.Intensity > 1 {
			label += fmt.Sprintf("+%.0f%%", (r.Intensity-1)*100)
		}
		cells = append(cells, []string{label, fmt.Sprintf("%d", r.Brakes)})
	}
	text := table([]string{"Policy", "Power brake events"}, cells)
	var bars []render.Bar
	for _, r := range rows {
		label := r.Policy
		if r.Intensity > 1 {
			label += "+5%"
		}
		bars = append(bars, render.Bar{Label: label, Value: float64(r.Brakes)})
	}
	text += "\n" + render.Bars(bars, render.BarOptions{
		Title: "Power brake events (log scale; lower is better)", Log: true, Format: "%.0f",
	})
	return Result{Text: text, Data: rows}, nil
}

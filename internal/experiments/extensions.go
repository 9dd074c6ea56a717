package experiments

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/disagg"
	"polca/internal/llm"
	"polca/internal/plan"
	"polca/internal/polca"
	"polca/internal/profiler"
	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

func init() {
	register("ext-dtype", "§4.2: Datatype (quantization) impact on power and performance", runExtDtype)
	register("ext-phase", "§5.2: Phase-aware frequency scaling", runExtPhase)
	register("ext-split", "§5.2: Prompt/token disaggregation (phase splitting)", runExtSplit)
	register("ext-aware", "§6.7: Workload-aware POLCA frequencies", runExtAware)
	register("ext-swing", "§5.1: Mitigating training power swings", runExtSwing)
	register("ext-hysteresis", "Ablation: POLCA uncap-margin (hysteresis) sweep", runExtHysteresis)
	register("ext-oob", "Ablation: OOB actuation latency sensitivity", runExtOOB)
}

// --- §4.2 datatypes ---

// DtypeRow is one (model, datatype) measurement.
type DtypeRow struct {
	Model   string
	DType   string
	GPUs    int
	PeakTDP float64 // per GPU
	Latency float64 // seconds
	FleetW  float64 // peak power across all serving GPUs
	EnergyJ float64 // per request across all GPUs
}

func runExtDtype(o Options) (Result, error) {
	models := []string{"Llama2-13B", "Llama2-70B"}
	var rows []DtypeRow
	for _, name := range models {
		m := llm.MustByName(name)
		for _, dt := range []llm.DType{llm.FP32, llm.FP16, llm.INT8} {
			tp := plan.GPUsForDType(m, dt, 80)
			if name == "Llama2-70B" && dt == llm.INT8 {
				tp = 2 // paper footnote: activations/KV preclude one GPU
			}
			cfg := plan.InferenceConfig{Model: m, DType: dt, TensorParallel: tp, BatchSize: 1, InputTokens: 1024, OutputTokens: 128}
			mm, err := profiler.MeasureInference(cfg, profiler.Knob{})
			if err != nil {
				return Result{}, err
			}
			tdp := 400.0
			rows = append(rows, DtypeRow{
				Model: name, DType: dt.String(), GPUs: tp,
				PeakTDP: mm.PeakTDP,
				Latency: mm.Latency.Seconds(),
				FleetW:  mm.PeakTDP * tdp * float64(tp),
				EnergyJ: mm.MeanTDP * tdp * float64(tp) * mm.Latency.Seconds(),
			})
		}
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Model, r.DType, fmt.Sprintf("%d", r.GPUs), f2(r.PeakTDP),
			f2(r.Latency), fmt.Sprintf("%.0f", r.FleetW), fmt.Sprintf("%.0f", r.EnergyJ),
		})
	}
	return Result{
		Text: table([]string{"Model", "DType", "GPUs", "Peak/TDP (per GPU)", "Latency (s)", "Fleet peak (W)", "Energy (J)"}, cells),
		Data: rows,
	}, nil
}

// --- §5.2 phase-aware scaling ---

// PhaseRow is one model's phase-aware comparison.
type PhaseRow struct {
	Model      string
	Comparison disagg.PhaseComparison
}

func runExtPhase(o Options) (Result, error) {
	var rows []PhaseRow
	for _, m := range llm.InferenceModels() {
		cfg := plan.InferenceConfig{Model: m, DType: llm.FP16, BatchSize: 1, InputTokens: 2048, OutputTokens: 512}
		cmp, err := disagg.ComparePhaseAware(cfg, 1110)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, PhaseRow{Model: m.Name, Comparison: cmp})
	}
	var cells [][]string
	for _, r := range rows {
		c := r.Comparison
		cells = append(cells, []string{
			r.Model,
			pct(c.PhaseAwareSavings),
			pct(c.PhaseAwareSlowdown),
			pct(float64(c.UniformLow.Latency)/float64(c.Baseline.Latency) - 1),
			pct(c.RecoveredLatency),
		})
	}
	return Result{
		Text: table([]string{"Model", "Mean power saved", "Phase-aware slowdown", "Uniform-lock slowdown", "Slowdown recovered"}, cells),
		Data: rows,
	}, nil
}

// --- §5.2 disaggregation ---

// SplitRow is one disaggregation analysis.
type SplitRow struct {
	Model  string
	Report disagg.SplitReport
}

func runExtSplit(o Options) (Result, error) {
	var rows []SplitRow
	for _, name := range []string{"Llama2-70B", "BLOOM-176B"} {
		cfg := disagg.SplitConfig{
			Workload: plan.InferenceConfig{
				Model: llm.MustByName(name), DType: llm.FP16,
				BatchSize: 1, InputTokens: 2048, OutputTokens: 512,
			},
			TokenClockMHz:    1110,
			InterconnectGBps: 25,
		}
		rep, err := disagg.EvaluateSplit(cfg)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, SplitRow{Model: name, Report: rep})
	}
	var cells [][]string
	for _, r := range rows {
		rep := r.Report
		cells = append(cells, []string{
			r.Model,
			fmt.Sprintf("1:%.1f", rep.PoolRatio),
			fmt.Sprintf("%.0f ms", rep.TransferSeconds*1000),
			pct(rep.LatencyOverhead),
			pct(rep.PowerSavings),
		})
	}
	return Result{
		Text: table([]string{"Model", "Prompt:token pool", "KV handoff", "Latency overhead", "Fleet power saved"}, cells),
		Data: rows,
	}, nil
}

// --- §6.7 workload-aware POLCA ---

// AwareSummary condenses one policy's run for the comparison.
type AwareSummary struct {
	PeakUtil float64
	MeanUtil float64
	Brakes   int
	LPp99    float64
	HPp99    float64
}

// AwareData compares the static and workload-aware policies on the row.
type AwareData struct {
	StaticFreqs  [3]float64
	PlannedFreqs [3]float64
	Static       AwareSummary
	Aware        AwareSummary
}

func runExtAware(o Options) (Result, error) {
	def := polca.DefaultConfig()
	planned, err := polca.PlanWorkloadAware(def, llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6())
	if err != nil {
		return Result{}, err
	}
	ms, err := simulateRows(o, []rowSpec{
		{policy: "polca", added: 0.30, intensity: 1, days: o.SweepDays},
		{policy: "polca", pc: planned, added: 0.30, intensity: 1, days: o.SweepDays},
	})
	if err != nil {
		return Result{}, err
	}
	summarize := func(m *cluster.Metrics) AwareSummary {
		lat := sortedLatencies(m)
		return AwareSummary{
			PeakUtil: m.Util.Peak(), MeanUtil: m.Util.Mean(), Brakes: m.BrakeEvents,
			LPp99: lat.p(workload.Low, 99), HPp99: lat.p(workload.High, 99),
		}
	}
	data := AwareData{
		StaticFreqs:  [3]float64{def.LPBaseMHz, def.LPDeepMHz, def.HPCapMHz},
		PlannedFreqs: [3]float64{planned.LPBaseMHz, planned.LPDeepMHz, planned.HPCapMHz},
		Static:       summarize(ms[0]),
		Aware:        summarize(ms[1]),
	}
	row := func(name string, s AwareSummary) []string {
		return []string{
			name, pct(s.PeakUtil), pct(s.MeanUtil), fmt.Sprintf("%d", s.Brakes),
			f2(s.LPp99), f2(s.HPp99),
		}
	}
	text := fmt.Sprintf("Static Table 5 frequencies:   T1=%.0f T2lp=%.0f T2hp=%.0f MHz\n", data.StaticFreqs[0], data.StaticFreqs[1], data.StaticFreqs[2]) +
		fmt.Sprintf("Workload-aware planned:       T1=%.0f T2lp=%.0f T2hp=%.0f MHz\n\n", data.PlannedFreqs[0], data.PlannedFreqs[1], data.PlannedFreqs[2]) +
		table([]string{"Policy", "Peak util", "Mean util", "Brakes", "LP p99 (s)", "HP p99 (s)"},
			[][]string{row("POLCA (static)", data.Static), row("POLCA (workload-aware)", data.Aware)})
	return Result{Text: text, Data: data}, nil
}

// --- §5.1 training swing mitigation ---

// SwingRow is one mitigation strategy's outcome.
type SwingRow struct {
	Strategy string
	Summary  cluster.ClusterComparison
}

func runExtSwing(o Options) (Result, error) {
	horizon := 2 * time.Hour
	if o.Quick {
		horizon = 30 * time.Minute
	}
	base := cluster.ProductionTraining()

	// Overlapped communication: lazy weight updates keep GPUs busier
	// through synchronization (higher SyncOverlap, shorter sync).
	overlapped := cluster.ProductionTraining()
	for i := range overlapped.Jobs {
		p := &overlapped.Jobs[i].Profile
		p.SyncOverlap = 0.75
		p.SyncSeconds *= 0.5
	}

	// Frequency locking the whole row (the §5.1 blunt instrument).
	locked := cluster.ProductionTraining()
	locked.LockClockMHz = 1100

	// Power capping (clips the peaks, Insight 3).
	capped := cluster.ProductionTraining()
	capped.PowerCapWatts = 325

	strategies := []struct {
		name string
		cfg  cluster.TrainingRowConfig
	}{
		{"baseline (synchronous)", base},
		{"overlapped comm + lazy updates", overlapped},
		{"row frequency lock 1.1GHz", locked},
		{"row power cap 325W", capped},
	}
	var rows []SwingRow
	for _, s := range strategies {
		util, err := cluster.SimulateTraining(s.cfg, horizon, sim.New(o.Seed).Rand("swing/"+s.name))
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, SwingRow{Strategy: s.name, Summary: cluster.SummarizeUtilization(s.name, util)})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Strategy, pct(r.Summary.PeakUtilization), pct(r.Summary.MeanUtilization), pct(r.Summary.MaxSpike2s),
		})
	}
	return Result{
		Text: table([]string{"Strategy", "Peak util", "Mean util", "Max 2s swing"}, cells),
		Data: rows,
	}, nil
}

// --- ablations ---

// HysteresisRow is one uncap-margin setting's outcome.
type HysteresisRow struct {
	Margin       float64
	LockCommands int
	Brakes       int
	PeakUtil     float64
}

func runExtHysteresis(o Options) (Result, error) {
	margins := []float64{0.01, 0.05, 0.10}
	specs := make([]rowSpec, len(margins))
	for i, margin := range margins {
		pc := polca.DefaultConfig()
		pc.UncapMargin = margin
		specs[i] = rowSpec{policy: "polca", pc: pc, added: 0.30, intensity: 1, days: o.SweepDays}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	var rows []HysteresisRow
	for i, m := range ms {
		rows = append(rows, HysteresisRow{
			Margin: margins[i], LockCommands: m.LockCommands,
			Brakes: m.BrakeEvents, PeakUtil: m.Util.Peak(),
		})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			pct(r.Margin), fmt.Sprintf("%d", r.LockCommands), fmt.Sprintf("%d", r.Brakes), pct(r.PeakUtil),
		})
	}
	text := table([]string{"Uncap margin", "OOB commands", "Brakes", "Peak util"}, cells) +
		"\nA thin margin flaps between capping and uncapping (more OOB traffic);\nthe paper selects 5% from such sweeps (§6.3).\n"
	return Result{Text: text, Data: rows}, nil
}

// OOBRow is one actuation-latency setting's outcome.
type OOBRow struct {
	Latency  time.Duration
	Brakes   int
	PeakUtil float64
	// SafeT2 is the threshold the training procedure would pick at this
	// latency: faster actuation permits a higher T2 (§5's call for better
	// OOB interfaces).
	SafeT2 float64
}

func runExtOOB(o Options) (Result, error) {
	latencies := []time.Duration{5 * time.Second, 40 * time.Second, 80 * time.Second}
	specs := make([]rowSpec, len(latencies))
	for i, lat := range latencies {
		specs[i] = rowSpec{policy: "polca", oobLatency: lat, added: 0.30, intensity: 1, days: o.SweepDays}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}
	ref := trace.ProductionInference().Reference(horizonFromDays(o.TrainDays), sim.New(o.Seed).Rand("ref"))
	var rows []OOBRow
	for i, m := range ms {
		rows = append(rows, OOBRow{
			Latency: latencies[i], Brakes: m.BrakeEvents, PeakUtil: m.Util.Peak(),
			SafeT2: polca.TrainThresholds(ref, m.Config.BrakeUtil, latencies[i]).T2,
		})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Latency.String(), fmt.Sprintf("%d", r.Brakes), pct(r.PeakUtil), pct(r.SafeT2),
		})
	}
	text := table([]string{"OOB latency", "Brakes", "Peak util", "Trainable T2"}, cells) +
		"\nFaster, standardized OOB interfaces (§5) raise the safe T2 and shrink\nthe window in which power can run away before a cap lands.\n"
	return Result{Text: text, Data: rows}, nil
}

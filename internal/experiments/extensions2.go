package experiments

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/plan"
	"polca/internal/profiler"
	"polca/internal/sim"
	"polca/internal/workload"
)

func init() {
	register("ext-batch", "Insight 5: batching as a power management knob", runExtBatch)
	register("ext-seeds", "Robustness: POLCA at +30% across seeds", runExtSeeds)
}

// BatchRow is one batch-size operating point.
type BatchRow struct {
	Batch     int
	PeakTDP   float64
	TokensSec float64 // aggregate generated tokens per second
	// TokensPerKJ is the energy efficiency (tokens per kilojoule).
	TokensPerKJ float64
}

// BatchData is the sweep plus the chosen operating points.
type BatchData struct {
	Rows []BatchRow
	// BestUnderBudget is the highest-throughput batch whose peak power
	// stays under the budget (here: TDP, i.e. no overshoot headroom).
	BestUnderBudget int
	// BestUnbounded is the highest-throughput batch overall.
	BestUnbounded int
}

func runExtBatch(o Options) (Result, error) {
	batches := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		batches = []int{1, 4, 16}
	}
	bloom := llm.MustByName("BLOOM-176B")
	var data BatchData
	bestBudget, bestAll := -1.0, -1.0
	for _, b := range batches {
		cfg := plan.InferenceConfig{Model: bloom, DType: llm.FP16, BatchSize: b, InputTokens: 1024, OutputTokens: 256}
		m, err := profiler.MeasureInference(cfg, profiler.Knob{})
		if err != nil {
			return Result{}, err
		}
		tokens := float64(b) * 256
		tps := tokens / m.Latency.Seconds()
		energyKJ := m.MeanTDP * 400 * m.Latency.Seconds() / 1000
		row := BatchRow{Batch: b, PeakTDP: m.PeakTDP, TokensSec: tps, TokensPerKJ: tokens / energyKJ}
		data.Rows = append(data.Rows, row)
		if tps > bestAll {
			bestAll = tps
			data.BestUnbounded = b
		}
		if m.PeakTDP <= 1.0 && tps > bestBudget {
			bestBudget = tps
			data.BestUnderBudget = b
		}
	}
	var cells [][]string
	for _, r := range data.Rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Batch), f2(r.PeakTDP), fmt.Sprintf("%.1f", r.TokensSec), fmt.Sprintf("%.0f", r.TokensPerKJ),
		})
	}
	text := table([]string{"Batch", "Peak/TDP", "Tokens/s", "Tokens/kJ"}, cells)
	text += fmt.Sprintf("\nBatching trades peak power for throughput and efficiency (Insight 5):\n"+
		"  best batch under a TDP peak-power budget: %d\n"+
		"  best batch unconstrained:                 %d\n",
		data.BestUnderBudget, data.BestUnbounded)
	return Result{Text: text, Data: data}, nil
}

// SeedRow is one seed's +30% POLCA outcome.
type SeedRow struct {
	Seed     int64
	Brakes   int
	PeakUtil float64
	LPp99    float64
	HPp99    float64
}

func runExtSeeds(o Options) (Result, error) {
	seeds := []int64{1, 2, 3, 4, 5}
	if o.Quick {
		seeds = []int64{1, 2}
	}
	var rows []SeedRow
	for _, seed := range seeds {
		so := o
		so.Seed = seed
		m, err := simulateRow(so, rowSpec{policy: "polca", added: 0.30, intensity: 1, days: o.SweepDays})
		if err != nil {
			return Result{}, err
		}
		lat := sortedLatencies(m)
		rows = append(rows, SeedRow{
			Seed: seed, Brakes: m.BrakeEvents, PeakUtil: m.Util.Peak(),
			LPp99: lat.p(workload.Low, 99), HPp99: lat.p(workload.High, 99),
		})
	}
	var cells [][]string
	zeroBrakes := 0
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Seed), fmt.Sprintf("%d", r.Brakes), pct(r.PeakUtil),
			fmt.Sprintf("%.1f", r.LPp99), fmt.Sprintf("%.1f", r.HPp99),
		})
		if r.Brakes == 0 {
			zeroBrakes++
		}
	}
	text := table([]string{"Seed", "Brakes", "Peak util", "LP p99 (s)", "HP p99 (s)"}, cells)
	text += fmt.Sprintf("\n%d/%d seeds complete +30%% oversubscription without a power brake.\n", zeroBrakes, len(rows))
	return Result{Text: text, Data: rows}, nil
}

func init() {
	register("ext-h100", "§4.2/§6.7 forward look: H100 with the FP8 transformer engine", runExtH100)
}

// H100Row is one (GPU generation, datatype) serving point for BLOOM-176B.
type H100Row struct {
	GPU           string
	DType         string
	GPUs          int
	Latency       float64
	TokensSec     float64
	FleetPeakW    float64
	TokensPerKJ   float64
	ServerRatedKW float64
}

func runExtH100(o Options) (Result, error) {
	bloom := llm.MustByName("BLOOM-176B")
	points := []struct {
		spec  gpu.Spec
		dt    llm.DType
		tp    int
		rated float64
	}{
		{gpu.A100SXM80GB(), llm.FP16, 8, 6.5},  // the paper's deployment
		{gpu.H100SXM80GB(), llm.FP16, 8, 10.2}, // same sharding, Hopper
		{gpu.H100SXM80GB(), llm.FP8, 4, 10.2},  // FP8 halves the footprint
	}
	var rows []H100Row
	for _, pt := range points {
		cfg := plan.InferenceConfig{
			Model: bloom, DType: pt.dt, TensorParallel: pt.tp,
			BatchSize: 1, InputTokens: 2048, OutputTokens: 256,
			NVLinkGBps: pt.spec.NVLinkGBps,
		}
		m, err := profiler.MeasureInferenceOn(pt.spec, cfg, profiler.Knob{})
		if err != nil {
			return Result{}, err
		}
		tokens := 256.0
		energyKJ := m.MeanTDP * pt.spec.TDPWatts * float64(pt.tp) * m.Latency.Seconds() / 1000
		rows = append(rows, H100Row{
			GPU: pt.spec.Name, DType: pt.dt.String(), GPUs: pt.tp,
			Latency:       m.Latency.Seconds(),
			TokensSec:     m.TokensSec,
			FleetPeakW:    m.PeakTDP * pt.spec.TDPWatts * float64(pt.tp),
			TokensPerKJ:   tokens / energyKJ,
			ServerRatedKW: pt.rated,
		})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.GPU, r.DType, fmt.Sprintf("%d", r.GPUs), f2(r.Latency),
			fmt.Sprintf("%.1f", r.TokensSec), fmt.Sprintf("%.0f", r.FleetPeakW),
			fmt.Sprintf("%.0f", r.TokensPerKJ),
		})
	}
	text := table([]string{"GPU", "DType", "GPUs", "Latency (s)", "Tokens/s", "Fleet peak (W)", "Tokens/kJ"}, cells)
	text += "\nDGX-H100 racks are denser (8U, 10.2 kW vs 6U, 6.5 kW, §6.7): per-request\n" +
		"power rises even as FP8 halves the GPU count — power, not space, stays\n" +
		"the binding constraint, and POLCA-style oversubscription matters more.\n"
	return Result{Text: text, Data: rows}, nil
}

func init() {
	register("ext-train-oversub", "§5.1: Why training clusters resist power oversubscription", runExtTrainOversub)
}

// TrainOversubRow is one training-row oversubscription point.
type TrainOversubRow struct {
	Added        float64
	UncappedPeak float64 // fraction of the tightened budget
	OverBudget   float64 // fraction of samples above the budget, uncapped
	CapWatts     float64 // smallest per-GPU cap that fits the budget (0 = none found)
	Slowdown     float64 // mean training-iteration stretch under that cap
}

func runExtTrainOversub(o Options) (Result, error) {
	horizon := time.Hour
	if o.Quick {
		horizon = 20 * time.Minute
	}
	addeds := []float64{0, 0.10, 0.20, 0.30}
	caps := []float64{400, 360, 325, 290, 260, 230}
	var rows []TrainOversubRow
	for _, added := range addeds {
		// More servers under the same budget = a tighter per-server slice.
		base := cluster.ProductionTraining()
		base.ProvisionedPerServerWatts /= 1 + added

		util, err := cluster.SimulateTraining(base, horizon, sim.New(o.Seed).Rand(fmt.Sprintf("to/%v", added)))
		if err != nil {
			return Result{}, err
		}
		over := 0
		for _, u := range util.Values {
			if u > 1 {
				over++
			}
		}
		row := TrainOversubRow{
			Added:        added,
			UncappedPeak: util.Peak(),
			OverBudget:   float64(over) / float64(util.Len()),
		}
		// Smallest cap that keeps the row inside its budget.
		for _, cap := range caps {
			capped := base
			capped.PowerCapWatts = cap
			cu, err := cluster.SimulateTraining(capped, horizon/2, sim.New(o.Seed).Rand(fmt.Sprintf("toc/%v/%v", added, cap)))
			if err != nil {
				return Result{}, err
			}
			if cu.Peak() <= 1.0 {
				row.CapWatts = cap
				row.Slowdown = trainingSlowdownAt(cap)
				break
			}
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		capStr := "none fits"
		if r.CapWatts > 0 {
			capStr = fmt.Sprintf("%.0f W", r.CapWatts)
		}
		cells = append(cells, []string{
			pct(r.Added), pct(r.UncappedPeak), pct(r.OverBudget), capStr, pct(r.Slowdown),
		})
	}
	text := table([]string{"Added", "Uncapped peak", "Time over budget", "Required cap", "Training slowdown"}, cells)
	text += "\nEvery added server pushes the whole training row into sustained\n" +
		"power-capped operation (§5.1) — unlike inference, there is no\n" +
		"statistical multiplexing to absorb it, so the provisioned compute\n" +
		"is simply wasted.\n"
	return Result{Text: text, Data: rows}, nil
}

// trainingSlowdownAt measures the mean iteration stretch of the three
// training profiles under a per-GPU power cap.
func trainingSlowdownAt(capWatts float64) float64 {
	var sum float64
	var n int
	for _, cfg := range plan.TrainingProfiles() {
		base, err := profiler.RunTraining(cfg, profiler.Knob{}, 2)
		if err != nil {
			continue
		}
		capped, err := profiler.RunTraining(cfg, profiler.Knob{PowerCapWatts: capWatts}, 2)
		if err != nil {
			continue
		}
		sum += capped.IterSeconds/base.IterSeconds - 1
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func init() {
	register("ext-ladder", "§6.3 extension: a finer three-rung capping ladder", runExtLadder)
}

// LadderRow compares a policy variant at +30% oversubscription.
type LadderRow struct {
	Policy   string
	Brakes   int
	PeakUtil float64
	MeanUtil float64
	LPp99    float64
	HPp99    float64
	Commands int
}

func runExtLadder(o Options) (Result, error) {
	variants := []struct{ id, label string }{
		{"polca", "dual-threshold (paper)"},
		{"ladder3", "three-rung ladder"},
	}
	var rows []LadderRow
	for _, v := range variants {
		m, err := simulateRow(o, rowSpec{policy: v.id, added: 0.30, intensity: 1, days: o.SweepDays})
		if err != nil {
			return Result{}, err
		}
		lat := sortedLatencies(m)
		rows = append(rows, LadderRow{
			Policy: v.label, Brakes: m.BrakeEvents,
			PeakUtil: m.Util.Peak(), MeanUtil: m.Util.Mean(),
			LPp99: lat.p(workload.Low, 99), HPp99: lat.p(workload.High, 99),
			Commands: m.LockCommands,
		})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Policy, fmt.Sprintf("%d", r.Brakes), pct(r.PeakUtil), pct(r.MeanUtil),
			f2(r.LPp99), f2(r.HPp99), fmt.Sprintf("%d", r.Commands),
		})
	}
	text := table([]string{"Policy", "Brakes", "Peak util", "Mean util", "LP p99 (s)", "HP p99 (s)", "OOB cmds"}, cells)
	text += "\nA finer ladder engages earlier with gentler caps (§6.3's 'easily\n" +
		"extended to support more priorities'), trading more OOB actuation\n" +
		"traffic for smoother escalation.\n"
	return Result{Text: text, Data: rows}, nil
}

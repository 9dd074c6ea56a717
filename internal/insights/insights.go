// Package insights verifies the paper's nine numbered insights against the
// reproduction's own models and simulators. Each insight is a checkable
// proposition: Verify runs the relevant measurement and reports whether it
// holds, with the quantitative evidence.
//
// The suite doubles as the repository's highest-level integration test: if
// a model change breaks the physics an insight rests on, the corresponding
// check fails.
package insights

import (
	"fmt"
	"math/rand"
	"time"

	"polca/internal/cluster"
	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/plan"
	"polca/internal/polca"
	"polca/internal/profiler"
	"polca/internal/server"
	"polca/internal/sim"
)

// Check is the outcome of verifying one insight.
type Check struct {
	ID        int
	Statement string // the paper's insight, abridged
	Holds     bool
	Evidence  string
}

// Count is the number of insights in the paper.
const Count = 9

// Verify checks insight n (1-9) with randomness derived from seed.
func Verify(n int, seed int64) (Check, error) {
	switch n {
	case 1:
		return insight1()
	case 2:
		return insight2()
	case 3:
		return insight3()
	case 4:
		return insight4()
	case 5:
		return insight5()
	case 6:
		return insight6()
	case 7:
		return insight7()
	case 8:
		return insight8()
	case 9:
		return insight9(seed)
	}
	return Check{}, fmt.Errorf("insights: no insight %d (have 1-%d)", n, Count)
}

// VerifyAll checks every insight.
func VerifyAll(seed int64) ([]Check, error) {
	out := make([]Check, 0, Count)
	for n := 1; n <= Count; n++ {
		c, err := Verify(n, seed)
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

func insight1() (Check, error) {
	c := Check{ID: 1, Statement: "Peak power in LLM training iterations often reaches or exceeds GPU TDP"}
	reached := 0
	peaks := ""
	for _, cfg := range plan.TrainingProfiles() {
		run, err := profiler.RunTraining(cfg, profiler.Knob{}, 2)
		if err != nil {
			return c, err
		}
		r := run.PeakWatts / run.Spec.TDPWatts
		peaks += fmt.Sprintf("%s %.2f×TDP; ", cfg.Model.Name, r)
		if r >= 0.99 {
			reached++
		}
	}
	c.Holds = reached >= 2 // all but the small encoder model
	c.Evidence = peaks
	return c, nil
}

func insight2() (Check, error) {
	c := Check{ID: 2, Statement: "Large coordinated power swings are common in LLM training"}
	util, err := cluster.SimulateTraining(cluster.ProductionTraining(), 30*time.Minute, rand.New(rand.NewSource(2)))
	if err != nil {
		return c, err
	}
	swing := util.MaxRise(2 * time.Second)
	c.Holds = swing >= 0.2
	c.Evidence = fmt.Sprintf("row power swings %.1f%% of provisioned capacity within 2s", swing*100)
	return c, nil
}

func insight3() (Check, error) {
	c := Check{ID: 3, Statement: "Power capping clips training peaks without lowering troughs; frequency locking lowers overall power"}
	cfg := plan.TrainingProfiles()[1] // GPT-NeoX
	base, err := profiler.RunTraining(cfg, profiler.Knob{}, 2)
	if err != nil {
		return c, err
	}
	capped, err := profiler.RunTraining(cfg, profiler.Knob{PowerCapWatts: 325}, 2)
	if err != nil {
		return c, err
	}
	locked, err := profiler.RunTraining(cfg, profiler.Knob{LockClockMHz: 1100}, 2)
	if err != nil {
		return c, err
	}
	capClips := capped.PeakWatts < base.PeakWatts && capped.TroughWatts > base.TroughWatts-5
	lockLowers := locked.PeakWatts < base.PeakWatts && locked.TroughWatts < base.TroughWatts+5
	c.Holds = capClips && lockLowers
	c.Evidence = fmt.Sprintf("peak/trough W — base %.0f/%.0f, capped %.0f/%.0f, locked %.0f/%.0f",
		base.PeakWatts, base.TroughWatts, capped.PeakWatts, capped.TroughWatts, locked.PeakWatts, locked.TroughWatts)
	return c, nil
}

func insight4() (Check, error) {
	c := Check{ID: 4, Statement: "Inference has brief prompt phases at/above TDP and longer token phases at lower power"}
	cfg := plan.InferenceConfig{Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16, BatchSize: 1, InputTokens: 2048, OutputTokens: 256}
	p, err := plan.NewInference(cfg)
	if err != nil {
		return c, err
	}
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	pe := dev.Run(p.Prompt)
	te := dev.Run(p.Token)
	tdp := dev.Spec().TDPWatts
	c.Holds = pe.PeakPower() >= tdp && te.MeanPower() < 0.8*tdp && te.Duration > 3*pe.Duration
	c.Evidence = fmt.Sprintf("prompt %.2f×TDP for %.2fs; token %.2f×TDP for %.2fs",
		pe.PeakPower()/tdp, pe.Duration.Seconds(), te.MeanPower()/tdp, te.Duration.Seconds())
	return c, nil
}

func insight5() (Check, error) {
	c := Check{ID: 5, Statement: "Peak/mean inference power depend on input and batch size; latency depends on output size"}
	bloom := llm.MustByName("BLOOM-176B")
	mk := func(b, in, out int) profiler.Measurement {
		m, _ := profiler.MeasureInference(plan.InferenceConfig{
			Model: bloom, DType: llm.FP16, BatchSize: b, InputTokens: in, OutputTokens: out}, profiler.Knob{})
		return m
	}
	small := mk(1, 256, 256)
	bigIn := mk(1, 8192, 256)
	bigBatch := mk(8, 256, 256)
	longOut := mk(1, 256, 1024)
	powerKnobs := bigIn.PeakTDP > small.PeakTDP+0.05 && bigBatch.PeakTDP > small.PeakTDP+0.05
	latencyKnob := longOut.Latency > 3*small.Latency &&
		longOut.PeakTDP < small.PeakTDP+0.02
	c.Holds = powerKnobs && latencyKnob
	c.Evidence = fmt.Sprintf("peak×TDP: base %.2f, input×32 %.2f, batch×8 %.2f; latency: base %.1fs, output×4 %.1fs",
		small.PeakTDP, bigIn.PeakTDP, bigBatch.PeakTDP, small.Latency.Seconds(), longOut.Latency.Seconds())
	return c, nil
}

func insight6() (Check, error) {
	c := Check{ID: 6, Statement: "Quantization reduces model size and power but keeps the prompt/token phase difference"}
	m := llm.MustByName("Llama2-70B")
	fp32GPUs := plan.GPUsForDType(m, llm.FP32, 80)
	fp16GPUs := plan.GPUsForDType(m, llm.FP16, 80)
	p, err := plan.NewInference(plan.InferenceConfig{
		Model: m, DType: llm.INT8, TensorParallel: 2, BatchSize: 1, InputTokens: 2048, OutputTokens: 128})
	if err != nil {
		return c, err
	}
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	pe := dev.Run(p.Prompt)
	te := dev.Run(p.Token)
	phasesPersist := pe.PeakPower() > 1.2*te.MeanPower()
	c.Holds = fp16GPUs < fp32GPUs && phasesPersist
	c.Evidence = fmt.Sprintf("GPUs: FP32 %d vs FP16 %d; INT8 prompt %.0fW vs token %.0fW",
		fp32GPUs, fp16GPUs, pe.PeakPower(), te.MeanPower())
	return c, nil
}

func insight7() (Check, error) {
	c := Check{ID: 7, Statement: "Power capping is reactive (overshoots prompt spikes); frequency locking reclaims power reliably with minimal performance loss"}
	cfg := plan.InferenceConfig{Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16, BatchSize: 1, InputTokens: 8192, OutputTokens: 128}
	capped, err := profiler.MeasureInference(cfg, profiler.Knob{PowerCapWatts: 325})
	if err != nil {
		return c, err
	}
	pts, err := profiler.FrequencySweep(cfg, []float64{1110})
	if err != nil {
		return c, err
	}
	lock := pts[0]
	overshoots := capped.PeakTDP > 325.0/400+0.05
	superlinear := lock.PeakPowerReduction > 2*lock.PerfReduction && lock.PeakPowerReduction > 0.1
	c.Holds = overshoots && superlinear
	c.Evidence = fmt.Sprintf("capped peak %.2f×TDP (cap at 0.81); 1.1GHz lock reclaims %.1f%% for %.1f%% perf",
		capped.PeakTDP, lock.PeakPowerReduction*100, lock.PerfReduction*100)
	return c, nil
}

func insight8() (Check, error) {
	c := Check{ID: 8, Statement: "GPUs are the majority of the variable portion of server power"}
	srv := server.New(0, server.DGXA100(gpu.A100SXM80GB()))
	idleGPU := srv.GPUIdleWatts()
	busyGPU := 8 * 400.0
	deltaServer := srv.PowerFromGPUs(busyGPU) - srv.PowerFromGPUs(idleGPU)
	deltaGPU := busyGPU - idleGPU
	share := deltaGPU / deltaServer
	c.Holds = share > 0.5
	c.Evidence = fmt.Sprintf("GPUs contribute %.0f%% of the idle-to-busy server power swing (%.0f of %.0f W)",
		share*100, deltaGPU, deltaServer)
	return c, nil
}

func insight9(seed int64) (Check, error) {
	c := Check{ID: 9, Statement: "Inference clusters offer far more power headroom than training clusters (statistical multiplexing)"}
	trainUtil, err := cluster.SimulateTraining(cluster.ProductionTraining(), 30*time.Minute, rand.New(rand.NewSource(seed)))
	if err != nil {
		return c, err
	}
	trainPeak := trainUtil.Peak()

	cfg := cluster.Production()
	cfg.BaseServers = 16
	cfg.Seed = seed
	eng := sim.New(seed)
	arr, err := cluster.ProductionArrivals(cfg, 6*time.Hour, eng.Rand("reference"))
	if err != nil {
		return c, err
	}
	row, err := cluster.NewRow(eng, cfg, polca.NoCap{})
	if err != nil {
		return c, err
	}
	m := row.Run(arr)
	inferPeak := m.Util.Peak()

	trainHeadroom := 1 - trainPeak
	inferHeadroom := 1 - inferPeak
	c.Holds = inferHeadroom > 2*trainHeadroom && trainHeadroom < 0.1
	c.Evidence = fmt.Sprintf("peak utilization: training %.1f%% (headroom %.1f%%) vs inference %.1f%% (headroom %.1f%%)",
		trainPeak*100, trainHeadroom*100, inferPeak*100, inferHeadroom*100)
	return c, nil
}

// Render formats checks as a report table.
func Render(checks []Check) string {
	out := ""
	for _, c := range checks {
		mark := "✅"
		if !c.Holds {
			mark = "❌"
		}
		out += fmt.Sprintf("%s Insight %d: %s\n     %s\n", mark, c.ID, c.Statement, c.Evidence)
	}
	return out
}

// AllHold reports whether every check passed.
func AllHold(checks []Check) bool {
	for _, c := range checks {
		if !c.Holds {
			return false
		}
	}
	return len(checks) == Count
}

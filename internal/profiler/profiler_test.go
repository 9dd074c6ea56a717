package profiler

import (
	"testing"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/plan"
)

func bloom(batch, in, out int) plan.InferenceConfig {
	return plan.InferenceConfig{
		Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16,
		BatchSize: batch, InputTokens: in, OutputTokens: out,
	}
}

func TestKnobString(t *testing.T) {
	cases := []struct {
		k    Knob
		want string
	}{
		{Knob{}, "No cap"},
		{Knob{LockClockMHz: 1100}, "1.1GHz"},
		{Knob{PowerCapWatts: 325}, "325W cap"},
		{Knob{LockClockMHz: 1100, PowerCapWatts: 325}, "1100MHz+325W"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Knob%+v.String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKnobApply(t *testing.T) {
	d := gpu.NewDevice(gpu.A100SXM80GB())
	Knob{LockClockMHz: 1110, PowerCapWatts: 325}.Apply(d)
	if d.LockedClock() != 1110 || d.PowerCap() != 325 {
		t.Error("knob did not apply")
	}
	Knob{}.Apply(d)
	if d.LockedClock() != 0 || d.PowerCap() != d.Spec().TDPWatts {
		t.Error("zero knob did not reset")
	}
}

func TestRunInferenceShape(t *testing.T) {
	run, err := RunInference(bloom(1, 2048, 128), Knob{}, 1, 3, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Latencies) != 3 {
		t.Fatalf("latencies = %d, want 3", len(run.Latencies))
	}
	if len(run.Spans) != 6 { // prompt+token per measured request
		t.Fatalf("spans = %d, want 6", len(run.Spans))
	}
	s := run.PowerSeries()
	if s.Len() == 0 {
		t.Fatal("empty power series")
	}
	// Figure 6 shape: peak at/above TDP, long plateau below it.
	tdp := run.Spec.TDPWatts
	if s.Peak() < tdp {
		t.Errorf("peak %v below TDP", s.Peak())
	}
	plateau := 0
	for _, v := range s.Values {
		if v > 0.55*tdp && v < 0.85*tdp {
			plateau++
		}
	}
	if frac := float64(plateau) / float64(s.Len()); frac < 0.4 {
		t.Errorf("token plateau fraction = %.2f, want the majority of samples", frac)
	}
}

func TestWarmupSlowerThanSteadyState(t *testing.T) {
	// Capture the warm-up effect by comparing a run that measures the very
	// first request against one that warms up first.
	cold, err := RunInference(bloom(1, 1024, 32), Knob{}, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunInference(bloom(1, 1024, 32), Knob{}, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Latencies[0] <= warm.Latencies[0] {
		t.Errorf("first request (%v) should be slower than steady state (%v)", cold.Latencies[0], warm.Latencies[0])
	}
}

func TestRunInferencePropagatesError(t *testing.T) {
	if _, err := RunInference(plan.InferenceConfig{}, Knob{}, 0, 1, 0); err == nil {
		t.Error("want error for empty config")
	}
	if _, err := MeasureInference(plan.InferenceConfig{}, Knob{}); err == nil {
		t.Error("want error for empty config")
	}
}

func TestMeasurementFigure8Shapes(t *testing.T) {
	// Peak power rises with input size; mean stays comparatively flat.
	var peaks, means []float64
	for _, in := range []int{256, 1024, 4096, 8192} {
		m, err := MeasureInference(bloom(1, in, 128), Knob{})
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, m.PeakTDP)
		means = append(means, m.MeanTDP)
	}
	if !(peaks[3] > peaks[0]) {
		t.Errorf("peak did not rise with input: %v", peaks)
	}
	if growth := peaks[3] - peaks[0]; growth < 0.1 {
		t.Errorf("peak growth %v too small (Figure 8a shows drastic increase)", growth)
	}
	if spread := means[3] - means[0]; spread > 0.15 {
		t.Errorf("mean power moved %v across inputs, want stable", spread)
	}
	// Latency ~linear in output size.
	m128, _ := MeasureInference(bloom(1, 1024, 128), Knob{})
	m512, _ := MeasureInference(bloom(1, 1024, 512), Knob{})
	if r := m512.Latency.Seconds() / m128.Latency.Seconds(); r < 3 || r > 5 {
		t.Errorf("latency ratio for 4x output = %.2f, want ~4", r)
	}
	if m128.TokensSec <= 0 {
		t.Error("tokens/sec not reported")
	}
}

func TestFrequencySweepSuperlinear(t *testing.T) {
	// Figure 10a: significant power (up to 20%) reclaimed for minimal
	// performance loss (up to 7%).
	pts, err := FrequencySweep(bloom(1, 2048, 256), []float64{1400, 1350, 1300, 1250, 1200, 1150, 1100})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.PeakPowerReduction < p.PerfReduction-0.01 {
			t.Errorf("at %v: power reduction %.3f below perf reduction %.3f (should be superlinear)",
				p.Knob, p.PeakPowerReduction, p.PerfReduction)
		}
	}
	last := pts[len(pts)-1]
	if last.PeakPowerReduction < 0.12 {
		t.Errorf("1.1GHz reclaims only %.3f peak power, want >= 0.12", last.PeakPowerReduction)
	}
	if last.PerfReduction > 0.10 {
		t.Errorf("1.1GHz costs %.3f performance, want <= 0.10", last.PerfReduction)
	}
	// Figure 10c: less than 2% perf drop ~100 MHz below max.
	for _, p := range pts {
		if p.Knob.LockClockMHz == 1300 && p.PerfReduction > 0.02 {
			t.Errorf("1.3GHz perf drop = %.3f, want < 0.02", p.PerfReduction)
		}
	}
}

func TestSmallerBatchLowerPerfLoss(t *testing.T) {
	// Figure 10b: smaller batches show lower performance loss at the same
	// peak power reduction.
	small, err := FrequencySweep(bloom(1, 512, 256), []float64{1100})
	if err != nil {
		t.Fatal(err)
	}
	big, err := FrequencySweep(bloom(16, 512, 256), []float64{1100})
	if err != nil {
		t.Fatal(err)
	}
	if small[0].PerfReduction >= big[0].PerfReduction {
		t.Errorf("batch 1 perf loss %.3f should be below batch 16 loss %.3f",
			small[0].PerfReduction, big[0].PerfReduction)
	}
}

func TestRunTraining(t *testing.T) {
	for _, cfg := range plan.TrainingProfiles() {
		run, err := RunTraining(cfg, Knob{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if run.IterSeconds <= 0 {
			t.Fatalf("%s: no iterations recorded", cfg.Model.Name)
		}
		if run.PeakWatts <= run.TroughWatts {
			t.Errorf("%s: peak %v <= trough %v", cfg.Model.Name, run.PeakWatts, run.TroughWatts)
		}
		// Figure 4: per-iteration swings are big for all three models.
		swing := (run.PeakWatts - run.TroughWatts) / run.Spec.TDPWatts
		if swing < 0.15 {
			t.Errorf("%s: swing = %.2f TDP, want >= 0.15", cfg.Model.Name, swing)
		}
	}
}

func TestTrainingCappingVsLocking(t *testing.T) {
	// Insight 3: power capping clips peaks while keeping troughs (reducing
	// swing); frequency locking lowers the whole curve.
	cfg := plan.TrainingProfiles()[1] // GPT-NeoX
	base, err := RunTraining(cfg, Knob{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RunTraining(cfg, Knob{PowerCapWatts: 325}, 2)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := RunTraining(cfg, Knob{LockClockMHz: 1100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseSwing := base.PeakWatts - base.TroughWatts
	cappedSwing := capped.PeakWatts - capped.TroughWatts
	if cappedSwing >= baseSwing {
		t.Errorf("capping should shrink the swing: %v vs %v", cappedSwing, baseSwing)
	}
	if capped.TroughWatts < base.TroughWatts-5 {
		t.Errorf("capping should not depress troughs: %v vs %v", capped.TroughWatts, base.TroughWatts)
	}
	if locked.PeakWatts >= base.PeakWatts {
		t.Error("locking should lower peak power")
	}
	// Both reduce peak by up to ~20% (paper) — at least 10% here.
	if red := 1 - locked.PeakWatts/base.PeakWatts; red < 0.10 {
		t.Errorf("1.1GHz lock peak reduction = %.2f, want >= 0.10", red)
	}
}

func TestTrainingSweeps(t *testing.T) {
	cfg := plan.TrainingProfiles()[0]
	fs, err := TrainingFrequencySweep(cfg, []float64{1400, 1250, 1100})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 {
		t.Fatalf("sweep points = %d", len(fs))
	}
	// Lower clocks reclaim more power.
	if !(fs[2].PeakPowerReduction > fs[0].PeakPowerReduction) {
		t.Errorf("power reduction not monotone: %+v", fs)
	}
	ps, err := TrainingPowerCapSweep(cfg, []float64{400, 350, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("cap sweep points = %d", len(ps))
	}
}

func TestCounterCorrelationsFigure7(t *testing.T) {
	prompt, token, err := CounterCorrelations(bloom(1, 4096, 64), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Prompt phase: power strongly correlated with SM and tensor activity,
	// inversely with memory activity.
	pSM, err := prompt.At("power", "sm_activity")
	if err != nil {
		t.Fatal(err)
	}
	pTensor, _ := prompt.At("power", "tensor_activity")
	pMem, _ := prompt.At("power", "mem_activity")
	if pSM < 0.5 {
		t.Errorf("prompt power~sm = %.2f, want strong positive", pSM)
	}
	if pTensor < 0.5 {
		t.Errorf("prompt power~tensor = %.2f, want strong positive", pTensor)
	}
	if pMem > 0 {
		t.Errorf("prompt power~mem_activity = %.2f, want negative (Figure 7)", pMem)
	}
	// Token phase: correlations generally weak.
	tSM, _ := token.At("power", "sm_activity")
	tTensor, _ := token.At("power", "tensor_activity")
	if tSM > 0.6 || tTensor > 0.6 {
		t.Errorf("token correlations too strong: sm=%.2f tensor=%.2f (want weak)", tSM, tTensor)
	}
	// Diagonal is 1; matrix is symmetric-ish.
	if d, _ := prompt.At("power", "power"); d != 1 {
		t.Errorf("diagonal = %v", d)
	}
	if _, err := prompt.At("nope", "power"); err == nil {
		t.Error("unknown label should error")
	}
}

func TestCorrelationsDeterministic(t *testing.T) {
	a1, _, err := CounterCorrelations(bloom(1, 2048, 32), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := CounterCorrelations(bloom(1, 2048, 32), 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.R {
		for j := range a1.R[i] {
			if a1.R[i][j] != a2.R[i][j] {
				t.Fatal("correlations not deterministic for equal seeds")
			}
		}
	}
}

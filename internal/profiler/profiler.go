// Package profiler implements the paper's server-level characterization
// methodology (§3.4): it executes inference and training plans on modelled
// GPUs, records DCGM-style counter timelines, and derives the power/
// performance measurements behind Figures 4-10 — power timeseries, peak and
// mean power per configuration, frequency and power-cap sweeps, and the
// counter correlation matrices of Figure 7.
package profiler

import (
	"fmt"
	"math/rand"
	"time"

	"polca/internal/gpu"
	"polca/internal/plan"
	"polca/internal/stats"
	"polca/internal/telemetry"
)

// DCGMInterval is the sampling interval used for all profiling, matching
// the paper's monitoring configuration.
const DCGMInterval = 100 * time.Millisecond

// Knob is a power-management setting applied to the device before a run.
type Knob struct {
	// LockClockMHz locks the SM clock when non-zero (frequency locking).
	LockClockMHz float64
	// PowerCapWatts sets the reactive cap when non-zero (power capping).
	PowerCapWatts float64
}

// Apply configures the device. A zero Knob restores defaults.
func (k Knob) Apply(d *gpu.Device) {
	d.LockClock(k.LockClockMHz)
	if k.PowerCapWatts > 0 {
		d.SetPowerCap(k.PowerCapWatts)
	} else {
		d.SetPowerCap(d.Spec().TDPWatts)
	}
}

// String describes the knob the way the paper labels its figures.
func (k Knob) String() string {
	switch {
	case k.LockClockMHz > 0 && k.PowerCapWatts > 0:
		return fmt.Sprintf("%.0fMHz+%.0fW", k.LockClockMHz, k.PowerCapWatts)
	case k.LockClockMHz > 0:
		return fmt.Sprintf("%.1fGHz", k.LockClockMHz/1000)
	case k.PowerCapWatts > 0:
		return fmt.Sprintf("%.0fW cap", k.PowerCapWatts)
	}
	return "No cap"
}

// PhaseSpan marks where a request phase landed on the recorded timeline.
type PhaseSpan struct {
	Name     string // "prompt" or "token"
	Request  int
	From, To time.Duration
}

// InferenceRun is a recorded profiling session of repeated inferences.
type InferenceRun struct {
	Config    plan.InferenceConfig
	Timeline  *telemetry.Timeline
	Latencies []time.Duration // per measured request, end-to-end
	Spans     []PhaseSpan     // measured requests only
	Spec      gpu.Spec
}

// RunInference executes warmup+n back-to-back requests of the given
// configuration on a fresh device with the knob applied, waiting gap
// between requests. Following the paper's methodology, warmup requests
// (the first of which pays a workspace-allocation penalty) are executed
// but not recorded in latencies or spans — though they do appear on the
// timeline, exactly as a DCGM trace would show them.
func RunInference(cfg plan.InferenceConfig, knob Knob, warmup, n int, gap time.Duration) (InferenceRun, error) {
	p, err := plan.NewInference(cfg)
	if err != nil {
		return InferenceRun{}, err
	}
	spec := gpu.A100SXM80GB()
	dev := gpu.NewDevice(spec)
	dev.SetMemUsedGB(p.MemUsedGB)
	knob.Apply(dev)

	run := InferenceRun{Config: p.Config, Spec: spec, Timeline: telemetry.NewTimeline(idleOf(dev))}
	for i := 0; i < warmup+n; i++ {
		measured := i >= warmup
		req := i - warmup
		prompt := p.Prompt
		if i == 0 {
			// Workspace allocation makes the first request much slower.
			prompt.OverheadSeconds += 0.25 * (p.Prompt.OverheadSeconds + p.Token.OverheadSeconds + 0.2)
		}
		start := run.Timeline.End()
		pe := dev.Run(prompt)
		end, err := run.Timeline.Append(start, pe)
		if err != nil {
			return InferenceRun{}, err
		}
		if measured {
			run.Spans = append(run.Spans, PhaseSpan{Name: "prompt", Request: req, From: start, To: end})
		}
		var te gpu.Exec
		if p.TokenSteps > 0 {
			te = dev.Run(p.Token)
			tstart := end
			end, err = run.Timeline.Append(end, te)
			if err != nil {
				return InferenceRun{}, err
			}
			if measured {
				run.Spans = append(run.Spans, PhaseSpan{Name: "token", Request: req, From: tstart, To: end})
			}
		}
		if measured {
			run.Latencies = append(run.Latencies, pe.Duration+te.Duration)
		}
		if gap > 0 {
			run.Timeline.AppendIdle(gap)
		}
	}
	return run, nil
}

// idleOf returns the idle counters for a device.
func idleOf(d *gpu.Device) gpu.Counters {
	return d.Idle(time.Second).Segments[0].Counters
}

// PowerSeries samples the run's power at the DCGM interval.
func (r InferenceRun) PowerSeries() stats.Series {
	return r.Timeline.SampleInstant(DCGMInterval, telemetry.Power)
}

// MeanLatency returns the mean measured request latency.
func (r InferenceRun) MeanLatency() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / time.Duration(len(r.Latencies))
}

// Measurement is one point of Figure 8: peak and mean power (fractions of
// TDP) during request execution plus the request latency.
type Measurement struct {
	Config    plan.InferenceConfig
	PeakTDP   float64 // peak instantaneous power / TDP
	MeanTDP   float64 // mean power across execution / TDP
	Latency   time.Duration
	TokensSec float64 // generated tokens per second (0 for encoders)
}

// MeasureInference profiles a single steady-state request under the knob
// on the paper's A100-80GB inference machine.
func MeasureInference(cfg plan.InferenceConfig, knob Knob) (Measurement, error) {
	return MeasureInferenceOn(gpu.A100SXM80GB(), cfg, knob)
}

// MeasureInferenceOn profiles a request on an arbitrary GPU SKU (e.g. the
// H100 forward-look of §4.2). The config's NVLinkGBps should match the
// SKU's interconnect when tensor parallelism is used.
func MeasureInferenceOn(spec gpu.Spec, cfg plan.InferenceConfig, knob Knob) (Measurement, error) {
	if cfg.NVLinkGBps == 0 {
		cfg.NVLinkGBps = spec.NVLinkGBps
	}
	p, err := plan.NewInference(cfg)
	if err != nil {
		return Measurement{}, err
	}
	dev := gpu.NewDevice(spec)
	dev.SetMemUsedGB(p.MemUsedGB)
	knob.Apply(dev)

	var total time.Duration
	var energy float64
	peak := 0.0
	for _, ph := range p.Phases() {
		e := dev.Run(ph)
		total += e.Duration
		energy += e.Energy()
		if pk := e.PeakPower(); pk > peak {
			peak = pk
		}
	}
	if total <= 0 {
		return Measurement{}, fmt.Errorf("profiler: empty execution for %s", cfg.Model.Name)
	}
	m := Measurement{
		Config:  p.Config,
		PeakTDP: peak / spec.TDPWatts,
		MeanTDP: energy / total.Seconds() / spec.TDPWatts,
		Latency: total,
	}
	if p.TokenSteps > 0 {
		m.TokensSec = float64(p.TokenSteps) / total.Seconds()
	}
	return m, nil
}

// SweepPoint is one point of a Figure 5/10-style sweep: reductions are
// relative to the uncapped run (positive = lower than baseline).
type SweepPoint struct {
	Knob               Knob
	PeakPowerReduction float64 // 1 - peak/basePeak
	PerfReduction      float64 // 1 - baseLatency/latency (throughput loss)
	Latency            time.Duration
	PeakTDP            float64
}

// FrequencySweep measures the peak-power/performance trade-off of locking
// the SM clock at each frequency (Figure 10).
func FrequencySweep(cfg plan.InferenceConfig, clocksMHz []float64) ([]SweepPoint, error) {
	base, err := MeasureInference(cfg, Knob{})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(clocksMHz))
	for _, mhz := range clocksMHz {
		m, err := MeasureInference(cfg, Knob{LockClockMHz: mhz})
		if err != nil {
			return nil, err
		}
		out = append(out, sweepPoint(Knob{LockClockMHz: mhz}, base, m))
	}
	return out, nil
}

func sweepPoint(k Knob, base, m Measurement) SweepPoint {
	return SweepPoint{
		Knob:               k,
		PeakPowerReduction: 1 - m.PeakTDP/base.PeakTDP,
		PerfReduction:      1 - base.Latency.Seconds()/m.Latency.Seconds(),
		Latency:            m.Latency,
		PeakTDP:            m.PeakTDP,
	}
}

// TrainingRun is a recorded profiling session of training iterations.
type TrainingRun struct {
	Config      plan.TrainingConfig
	Timeline    *telemetry.Timeline
	IterSeconds float64 // mean measured iteration time
	PeakWatts   float64
	TroughWatts float64 // minimum power across the sync phases
	Spec        gpu.Spec
}

// RunTraining executes n training iterations under the knob on a fresh
// device (the paper's 40 GB training machine) and records the timeline.
func RunTraining(cfg plan.TrainingConfig, knob Knob, n int) (TrainingRun, error) {
	tr, err := plan.NewTraining(cfg)
	if err != nil {
		return TrainingRun{}, err
	}
	spec := gpu.A100SXM40GB()
	dev := gpu.NewDevice(spec)
	dev.SetMemUsedGB(0.85 * spec.MemoryGB) // paper: batch sized to ~85% memory
	knob.Apply(dev)

	run := TrainingRun{Config: cfg, Spec: spec, Timeline: telemetry.NewTimeline(idleOf(dev))}
	run.TroughWatts = spec.TDPWatts * 10
	var total time.Duration
	var allSegs []gpu.Segment
	for i := 0; i < n; i++ {
		for _, ph := range tr.Phases() {
			e := dev.Run(ph)
			total += e.Duration
			if _, err := run.Timeline.Append(run.Timeline.End(), e); err != nil {
				return TrainingRun{}, err
			}
			allSegs = append(allSegs, e.Segments...)
			if ph.Name == "sync" {
				if p := e.MeanPower(); p < run.TroughWatts {
					run.TroughWatts = p
				}
			}
		}
	}
	// Peak is the *sustained* peak across the run: capped phases overshoot
	// only for the limiter's reaction interval, and training phases are
	// long, so the level a power trace shows (Figure 4) is the
	// post-throttle one. Sub-reaction transients are ignored unless the
	// run contains nothing longer.
	run.PeakWatts = sustainedPeak(gpu.Exec{Segments: allSegs}, spec.CapReactionInterval*3/2)
	if n > 0 {
		run.IterSeconds = total.Seconds() / float64(n)
	}
	return run, nil
}

// sustainedPeak returns the maximum power among segments lasting at least
// minDur, falling back to the overall maximum when none qualify.
func sustainedPeak(e gpu.Exec, minDur time.Duration) float64 {
	peak, any := 0.0, false
	for _, s := range e.Segments {
		if s.Duration >= minDur {
			any = true
			if s.Counters.PowerWatts > peak {
				peak = s.Counters.PowerWatts
			}
		}
	}
	if !any {
		return e.PeakPower()
	}
	return peak
}

// TrainingSweepPoint is one point of Figure 5.
type TrainingSweepPoint struct {
	Knob               Knob
	PeakPowerReduction float64
	PerfReduction      float64 // throughput (iterations/s) loss
}

// TrainingFrequencySweep measures Figure 5a for one training profile.
func TrainingFrequencySweep(cfg plan.TrainingConfig, clocksMHz []float64) ([]TrainingSweepPoint, error) {
	return trainingSweep(cfg, knobsFromClocks(clocksMHz))
}

// TrainingPowerCapSweep measures Figure 5b for one training profile.
func TrainingPowerCapSweep(cfg plan.TrainingConfig, capsWatts []float64) ([]TrainingSweepPoint, error) {
	knobs := make([]Knob, len(capsWatts))
	for i, w := range capsWatts {
		knobs[i] = Knob{PowerCapWatts: w}
	}
	return trainingSweep(cfg, knobs)
}

func knobsFromClocks(clocksMHz []float64) []Knob {
	knobs := make([]Knob, len(clocksMHz))
	for i, c := range clocksMHz {
		knobs[i] = Knob{LockClockMHz: c}
	}
	return knobs
}

func trainingSweep(cfg plan.TrainingConfig, knobs []Knob) ([]TrainingSweepPoint, error) {
	base, err := RunTraining(cfg, Knob{}, 2)
	if err != nil {
		return nil, err
	}
	out := make([]TrainingSweepPoint, 0, len(knobs))
	for _, k := range knobs {
		r, err := RunTraining(cfg, k, 2)
		if err != nil {
			return nil, err
		}
		out = append(out, TrainingSweepPoint{
			Knob:               k,
			PeakPowerReduction: 1 - r.PeakWatts/base.PeakWatts,
			PerfReduction:      1 - base.IterSeconds/r.IterSeconds,
		})
	}
	return out, nil
}

// CorrMatrix is a labelled pairwise correlation matrix (Figure 7).
type CorrMatrix struct {
	Labels []string
	R      [][]float64 // R[i][j] = Pearson(counter i, counter j)
}

// At returns the correlation between the named counters.
func (m CorrMatrix) At(a, b string) (float64, error) {
	ai, bi := -1, -1
	for i, l := range m.Labels {
		if l == a {
			ai = i
		}
		if l == b {
			bi = i
		}
	}
	if ai < 0 || bi < 0 {
		return 0, fmt.Errorf("profiler: unknown counter %q/%q", a, b)
	}
	return m.R[ai][bi], nil
}

// counterSet lists the Figure 7 counters in display order.
var counterSet = []struct {
	label string
	sel   func(gpu.Counters) float64
}{
	{"power", telemetry.Power},
	{"gpu_util", telemetry.GPUUtil},
	{"mem_util", telemetry.MemUtil},
	{"sm_activity", telemetry.SMAct},
	{"tensor_activity", telemetry.TensorAct},
	{"mem_activity", telemetry.MemAct},
	{"pcie_tx", telemetry.PCIeTX},
	{"pcie_rx", telemetry.PCIeRX},
}

// CounterCorrelations reproduces Figure 7: it profiles repeated inferences
// of the configuration, splits the DCGM samples into prompt-phase and
// token-phase windows (widened by one sample on each side, as the paper's
// lag alignment effectively does), adds small measurement noise from the
// seeded source, and returns the two pairwise Pearson matrices.
func CounterCorrelations(cfg plan.InferenceConfig, requests int, seed int64) (prompt, token CorrMatrix, err error) {
	run, err := RunInference(cfg, Knob{}, 1, requests, 500*time.Millisecond)
	if err != nil {
		return CorrMatrix{}, CorrMatrix{}, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Sample every counter over the full run.
	series := make([][]float64, len(counterSet))
	horizon := run.Timeline.End()
	nSamples := int(horizon / DCGMInterval)
	for i, cs := range counterSet {
		s := run.Timeline.SampleInstantUntil(horizon, DCGMInterval, cs.sel)
		series[i] = s.Values
	}
	// Add ~1% relative measurement noise so flat stretches aren't degenerate.
	for i := range series {
		scale := stats.Max(series[i]) - stats.Min(series[i])
		if scale == 0 {
			scale = stats.Mean(series[i])
		}
		if scale == 0 {
			scale = 1
		}
		for j := range series[i] {
			series[i][j] += rng.NormFloat64() * 0.01 * scale
		}
	}

	// The prompt window is widened by one sample on each side — prompt
	// spikes are brief and the paper's lag alignment effectively captures
	// the surrounding transition samples. The token window is *shrunk* by
	// one sample so the steady plateau is measured without transitions.
	inPhase := func(name string, idx int, margin time.Duration) bool {
		ts := time.Duration(idx) * DCGMInterval
		for _, sp := range run.Spans {
			if sp.Name != name {
				continue
			}
			if ts >= sp.From-margin && ts < sp.To+margin {
				return true
			}
		}
		return false
	}
	var promptIdx, tokenIdx []int
	for i := 0; i < nSamples; i++ {
		if inPhase("prompt", i, DCGMInterval) {
			promptIdx = append(promptIdx, i)
		} else if inPhase("token", i, -DCGMInterval) {
			tokenIdx = append(tokenIdx, i)
		}
	}
	prompt = corrAt(series, promptIdx)
	token = corrAt(series, tokenIdx)
	return prompt, token, nil
}

// corrAt builds the pairwise correlation matrix over selected samples.
func corrAt(series [][]float64, idx []int) CorrMatrix {
	m := CorrMatrix{R: make([][]float64, len(counterSet))}
	for _, cs := range counterSet {
		m.Labels = append(m.Labels, cs.label)
	}
	sub := make([][]float64, len(series))
	for i := range series {
		sub[i] = make([]float64, len(idx))
		for j, k := range idx {
			sub[i][j] = series[i][k]
		}
	}
	for i := range sub {
		m.R[i] = make([]float64, len(sub))
		for j := range sub {
			if i == j {
				m.R[i][j] = 1
				continue
			}
			r, err := stats.Pearson(sub[i], sub[j])
			if err != nil {
				r = 0
			}
			m.R[i][j] = r
		}
	}
	return m
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/plan"
	"polca/internal/profiler"
	"polca/internal/render"
	"polca/internal/server"
	"polca/internal/sim"
	"polca/internal/stats"
)

func init() {
	register("fig3", "Figure 3: Provisioned power breakdown (8xA100-80GB server)", runFig3)
	register("fig4", "Figure 4: Training power timeseries under capping knobs", runFig4)
	register("fig5", "Figure 5: Peak power vs performance reduction (training)", runFig5)
	register("fig6", "Figure 6: GPU power timeseries for inference models", runFig6)
	register("fig7", "Figure 7: GPU counter correlations (BLOOM prompt vs token)", runFig7)
	register("fig8", "Figure 8: Power and latency vs input/batch/output sizes", runFig8)
	register("fig9", "Figure 9: Capping and locking on BLOOM inference", runFig9)
	register("fig10", "Figure 10: Peak power vs performance across SM frequencies", runFig10)
	register("fig11", "Figure 11: Server vs GPU peak power in a production fleet", runFig11)
}

// --- Figure 3 ---

// Fig3Row is one component of the provisioning breakdown.
type Fig3Row struct {
	Component   string
	Provisioned float64
	Share       float64
}

func runFig3(o Options) (Result, error) {
	spec := server.DGXA100(gpu.A100SXM80GB())
	var rows []Fig3Row
	rows = append(rows, Fig3Row{
		Component:   "gpus",
		Provisioned: spec.GPUProvisionedWatts(),
		Share:       spec.GPUProvisionedWatts() / spec.ProvisionedWatts,
	})
	for _, c := range spec.Components {
		rows = append(rows, Fig3Row{Component: c.Name, Provisioned: c.ProvisionedWatts, Share: c.ProvisionedWatts / spec.ProvisionedWatts})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Component, fmt.Sprintf("%.0f W", r.Provisioned), pct(r.Share)})
	}
	text := fmt.Sprintf("%s rated power: %.0f W\n", spec.Name, spec.ProvisionedWatts) +
		table([]string{"Component", "Provisioned", "Share"}, cells)
	return Result{Text: text, Data: rows}, nil
}

// --- Figure 4 ---

// Fig4Row summarizes one training timeseries.
type Fig4Row struct {
	Model     string
	Knob      string
	PeakTDP   float64 // sustained peak / TDP
	TroughTDP float64 // sync-phase trough / TDP
	IterSec   float64
	Series    stats.Series // 100 ms power samples, normalized to TDP
}

func runFig4(o Options) (Result, error) {
	iters := 5
	if o.Quick {
		iters = 2
	}
	knobs := []profiler.Knob{{}, {PowerCapWatts: 325}, {LockClockMHz: 1100}}
	var rows []Fig4Row
	for _, cfg := range plan.TrainingProfiles() {
		for _, k := range knobs {
			run, err := profiler.RunTraining(cfg, k, iters)
			if err != nil {
				return Result{}, err
			}
			tdp := run.Spec.TDPWatts
			series := run.Timeline.SampleInstant(profiler.DCGMInterval, func(c gpu.Counters) float64 {
				return c.PowerWatts / tdp
			})
			rows = append(rows, Fig4Row{
				Model:     cfg.Model.Name,
				Knob:      k.String(),
				PeakTDP:   run.PeakWatts / tdp,
				TroughTDP: run.TroughWatts / tdp,
				IterSec:   run.IterSeconds,
				Series:    series,
			})
		}
	}
	var cells [][]string
	charts := map[string]stats.Series{}
	for _, r := range rows {
		cells = append(cells, []string{r.Model, r.Knob, f2(r.PeakTDP), f2(r.TroughTDP), f2(r.IterSec)})
		if r.Model == "GPT-NeoX-20B" {
			charts[r.Knob] = r.Series
		}
	}
	text := table([]string{"Model", "Knob", "Peak/TDP", "Trough/TDP", "Iter (s)"}, cells)
	text += "\n" + render.Lines(charts, render.ChartOptions{
		Title: "GPT-NeoX-20B training power (normalized to TDP)",
		YMin:  0, YMax: 1.2, Height: 10, YLabel: "power / TDP",
	})
	return Result{Text: text, Data: rows}, nil
}

// --- Figure 5 ---

// Fig5Row is one sweep point for one model.
type Fig5Row struct {
	Model              string
	Knob               string
	PeakPowerReduction float64
	PerfReduction      float64
}

func runFig5(o Options) (Result, error) {
	clocks := []float64{1400, 1350, 1300, 1250, 1200, 1150, 1100}
	caps := []float64{400, 380, 360, 340, 325, 310, 300}
	if o.Quick {
		clocks = []float64{1400, 1250, 1100}
		caps = []float64{400, 350, 300}
	}
	var rows []Fig5Row
	for _, cfg := range plan.TrainingProfiles() {
		fs, err := profiler.TrainingFrequencySweep(cfg, clocks)
		if err != nil {
			return Result{}, err
		}
		for _, p := range fs {
			rows = append(rows, Fig5Row{Model: cfg.Model.Name, Knob: p.Knob.String(), PeakPowerReduction: p.PeakPowerReduction, PerfReduction: p.PerfReduction})
		}
		ps, err := profiler.TrainingPowerCapSweep(cfg, caps)
		if err != nil {
			return Result{}, err
		}
		for _, p := range ps {
			rows = append(rows, Fig5Row{Model: cfg.Model.Name, Knob: p.Knob.String(), PeakPowerReduction: p.PeakPowerReduction, PerfReduction: p.PerfReduction})
		}
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Model, r.Knob, pct(r.PeakPowerReduction), pct(r.PerfReduction)})
	}
	return Result{
		Text: table([]string{"Model", "Knob", "Peak power reduction", "Perf reduction"}, cells),
		Data: rows,
	}, nil
}

// --- Figure 6 ---

// Fig6Row summarizes one model's inference power timeseries.
type Fig6Row struct {
	Model      string
	PromptPeak float64 // /TDP
	TokenMean  float64 // /TDP
	RequestSec float64
	Series     stats.Series
}

func runFig6(o Options) (Result, error) {
	requests := 3
	var rows []Fig6Row
	for _, m := range llm.InferenceModels() {
		cfg := plan.InferenceConfig{Model: m, DType: llm.FP16, BatchSize: 1, InputTokens: 2048, OutputTokens: 256}
		run, err := profiler.RunInference(cfg, profiler.Knob{}, 1, requests, 500*time.Millisecond)
		if err != nil {
			return Result{}, err
		}
		tdp := run.Spec.TDPWatts
		var promptPeak, tokenSum, tokenDur float64
		for _, sp := range run.Spans {
			sub := run.Timeline.MeanBetween(sp.From, sp.To, func(c gpu.Counters) float64 { return c.PowerWatts })
			if sp.Name == "prompt" {
				if p := run.Timeline.At(sp.From).PowerWatts; p > promptPeak {
					promptPeak = p
				}
				_ = sub
			} else {
				tokenSum += sub * (sp.To - sp.From).Seconds()
				tokenDur += (sp.To - sp.From).Seconds()
			}
		}
		tokenMean := 0.0
		if tokenDur > 0 {
			tokenMean = tokenSum / tokenDur
		}
		rows = append(rows, Fig6Row{
			Model:      m.Name,
			PromptPeak: promptPeak / tdp,
			TokenMean:  tokenMean / tdp,
			RequestSec: run.MeanLatency().Seconds(),
			Series:     run.PowerSeries(),
		})
	}
	var cells [][]string
	var bloomSeries stats.Series
	tdp := gpu.A100SXM80GB().TDPWatts
	for _, r := range rows {
		cells = append(cells, []string{r.Model, f2(r.PromptPeak), f2(r.TokenMean), f2(r.RequestSec)})
		if r.Model == "BLOOM-176B" {
			bloomSeries = stats.Series{Step: r.Series.Step, Values: stats.Normalize(r.Series.Values, tdp)}
		}
	}
	text := table([]string{"Model", "Prompt peak/TDP", "Token mean/TDP", "Request (s)"}, cells)
	text += "\n" + render.Lines(map[string]stats.Series{"BLOOM-176B": bloomSeries}, render.ChartOptions{
		Title: "BLOOM-176B inference power: prompt spikes + token plateaus",
		YMin:  0, YMax: 1.2, Height: 10, YLabel: "power / TDP",
	})
	return Result{Text: text, Data: rows}, nil
}

// --- Figure 7 ---

// Fig7Data holds the two correlation matrices.
type Fig7Data struct {
	Prompt profiler.CorrMatrix
	Token  profiler.CorrMatrix
}

func renderMatrix(m profiler.CorrMatrix, title string) string {
	return render.Heatmap(m.Labels, m.R, title)
}

func runFig7(o Options) (Result, error) {
	cfg := plan.InferenceConfig{Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16, BatchSize: 1, InputTokens: 4096, OutputTokens: 64}
	prompt, token, err := profiler.CounterCorrelations(cfg, 3, o.Seed)
	if err != nil {
		return Result{}, err
	}
	text := renderMatrix(prompt, "Prompt phase") + "\n" + renderMatrix(token, "Token phase")
	return Result{Text: text, Data: Fig7Data{Prompt: prompt, Token: token}}, nil
}

// --- Figure 8 ---

// Fig8Row is one (model, knob-dimension, value) measurement.
type Fig8Row struct {
	Model     string
	Dimension string // "input", "batch", "output"
	Value     int
	PeakTDP   float64
	MeanTDP   float64
	Latency   float64 // seconds
}

func runFig8(o Options) (Result, error) {
	inputs := []int{256, 512, 1024, 2048, 4096, 8192}
	batches := []int{1, 2, 4, 8, 16}
	outputs := []int{128, 256, 512, 1024, 2048, 4096}
	if o.Quick {
		inputs = []int{256, 2048, 8192}
		batches = []int{1, 16}
		outputs = []int{128, 1024}
	}
	var rows []Fig8Row
	for _, m := range llm.InferenceModels() {
		base := plan.InferenceConfig{Model: m, DType: llm.FP16, BatchSize: 1, InputTokens: 1024, OutputTokens: 256}
		for _, in := range inputs {
			cfg := base
			cfg.InputTokens = in
			mm, err := profiler.MeasureInference(cfg, profiler.Knob{})
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, Fig8Row{Model: m.Name, Dimension: "input", Value: in, PeakTDP: mm.PeakTDP, MeanTDP: mm.MeanTDP, Latency: mm.Latency.Seconds()})
		}
		for _, b := range batches {
			cfg := base
			cfg.BatchSize = b
			cfg.InputTokens = 512
			mm, err := profiler.MeasureInference(cfg, profiler.Knob{})
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, Fig8Row{Model: m.Name, Dimension: "batch", Value: b, PeakTDP: mm.PeakTDP, MeanTDP: mm.MeanTDP, Latency: mm.Latency.Seconds()})
		}
		for _, out := range outputs {
			cfg := base
			cfg.OutputTokens = out
			mm, err := profiler.MeasureInference(cfg, profiler.Knob{})
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, Fig8Row{Model: m.Name, Dimension: "output", Value: out, PeakTDP: mm.PeakTDP, MeanTDP: mm.MeanTDP, Latency: mm.Latency.Seconds()})
		}
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Model, r.Dimension, fmt.Sprintf("%d", r.Value), f2(r.PeakTDP), f2(r.MeanTDP), f2(r.Latency)})
	}
	return Result{
		Text: table([]string{"Model", "Dim", "Value", "Peak/TDP", "Mean/TDP", "Latency (s)"}, cells),
		Data: rows,
	}, nil
}

// --- Figure 9 ---

// Fig9Row summarizes BLOOM inference under one knob.
type Fig9Row struct {
	Knob       string
	PeakTDP    float64 // recorded peak including reactive overshoot
	MeanTDP    float64
	LatencySec float64
	Series     stats.Series
}

func runFig9(o Options) (Result, error) {
	cfg := plan.InferenceConfig{Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16, BatchSize: 1, InputTokens: 8192, OutputTokens: 128}
	knobs := []profiler.Knob{{}, {PowerCapWatts: 325}, {LockClockMHz: 1100}}
	var rows []Fig9Row
	for _, k := range knobs {
		run, err := profiler.RunInference(cfg, k, 1, 3, 500*time.Millisecond)
		if err != nil {
			return Result{}, err
		}
		tdp := run.Spec.TDPWatts
		s := run.PowerSeries()
		rows = append(rows, Fig9Row{
			Knob:       k.String(),
			PeakTDP:    s.Peak() / tdp,
			MeanTDP:    s.Mean() / tdp,
			LatencySec: run.MeanLatency().Seconds(),
			Series:     s,
		})
	}
	var cells [][]string
	charts := map[string]stats.Series{}
	tdp := gpu.A100SXM80GB().TDPWatts
	for _, r := range rows {
		cells = append(cells, []string{r.Knob, f2(r.PeakTDP), f2(r.MeanTDP), f2(r.LatencySec)})
		charts[r.Knob] = stats.Series{Step: r.Series.Step, Values: stats.Normalize(r.Series.Values, tdp)}
	}
	text := table([]string{"Knob", "Peak/TDP", "Mean/TDP", "Latency (s)"}, cells)
	text += "\n" + render.Lines(charts, render.ChartOptions{
		Title: "BLOOM-176B inference under capping knobs (input=8192, output=128)",
		YMin:  0, YMax: 1.2, Height: 10, YLabel: "power / TDP",
	})
	return Result{Text: text, Data: rows}, nil
}

// --- Figure 10 ---

// Fig10Row is one frequency sweep point.
type Fig10Row struct {
	Subject            string // model name or BLOOM config label
	ClockMHz           float64
	PeakPowerReduction float64
	PerfReduction      float64
	PeakTDP            float64
}

func runFig10(o Options) (Result, error) {
	clocks := []float64{1410, 1350, 1300, 1250, 1200, 1150, 1100}
	if o.Quick {
		clocks = []float64{1410, 1250, 1100}
	}
	var rows []Fig10Row
	// (a) All models at a common configuration.
	for _, m := range llm.InferenceModels() {
		cfg := plan.InferenceConfig{Model: m, DType: llm.FP16, BatchSize: 1, InputTokens: 2048, OutputTokens: 256}
		pts, err := profiler.FrequencySweep(cfg, clocks)
		if err != nil {
			return Result{}, err
		}
		for _, p := range pts {
			rows = append(rows, Fig10Row{Subject: m.Name, ClockMHz: p.Knob.LockClockMHz, PeakPowerReduction: p.PeakPowerReduction, PerfReduction: p.PerfReduction, PeakTDP: p.PeakTDP})
		}
	}
	// (b) BLOOM across batch/input configurations.
	bloom := llm.MustByName("BLOOM-176B")
	configs := []struct {
		label string
		b, i  int
	}{
		{"b=1 i=512", 1, 512}, {"b=1 i=2048", 1, 2048}, {"b=1 i=8192", 1, 8192}, {"b=16 i=512", 16, 512},
	}
	for _, c := range configs {
		cfg := plan.InferenceConfig{Model: bloom, DType: llm.FP16, BatchSize: c.b, InputTokens: c.i, OutputTokens: 256}
		pts, err := profiler.FrequencySweep(cfg, clocks)
		if err != nil {
			return Result{}, err
		}
		for _, p := range pts {
			rows = append(rows, Fig10Row{Subject: "BLOOM " + c.label, ClockMHz: p.Knob.LockClockMHz, PeakPowerReduction: p.PeakPowerReduction, PerfReduction: p.PerfReduction, PeakTDP: p.PeakTDP})
		}
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Subject, fmt.Sprintf("%.0f", r.ClockMHz), pct(r.PeakPowerReduction), pct(r.PerfReduction)})
	}
	return Result{
		Text: table([]string{"Subject", "SM MHz", "Peak power reduction", "Perf reduction"}, cells),
		Data: rows,
	}, nil
}

// --- Figure 11 ---

// Fig11Row is one fleet server's peak readings.
type Fig11Row struct {
	Server        int
	GPUPeakTDP    float64 // aggregate GPU peak power / aggregate GPU TDP
	ServerPeakTDP float64 // server peak power / provisioned server power
	GPUShare      float64 // GPU power share of server power
}

// Fig11Data carries the rows plus fleet-level statistics.
type Fig11Data struct {
	Rows         []Fig11Row
	MeanGPUShare float64
	Correlation  float64
}

func runFig11(o Options) (Result, error) {
	fleet := 64
	if o.Quick {
		fleet = 16
	}
	spec := server.DGXA100(gpu.A100SXM80GB())
	srv := server.New(0, spec)
	rng := sim.New(o.Seed).Rand("fig11")
	classes := []plan.InferenceConfig{}
	for _, m := range llm.InferenceModels() {
		classes = append(classes, plan.InferenceConfig{Model: m, DType: llm.FP16, BatchSize: 1, InputTokens: 2048, OutputTokens: 256})
	}
	var rows []Fig11Row
	var gpuPeaks, srvPeaks []float64
	gpuTDP := spec.GPUProvisionedWatts()
	for i := 0; i < fleet; i++ {
		cfg := classes[rng.Intn(len(classes))]
		cfg.InputTokens = 512 + rng.Intn(7680)
		cfg.BatchSize = 1 + rng.Intn(8)
		p, err := plan.NewInference(cfg)
		if err != nil {
			return Result{}, err
		}
		// Each server's GPUs draw the silicon lottery (±4% power, ±2% perf).
		dev := gpu.NewDevice(spec.GPU)
		dev.SetVariation(1+rng.NormFloat64()*0.04, 1+rng.NormFloat64()*0.02)
		peakGPU := dev.PeakPower(p.Prompt) * float64(spec.GPUCount)
		serverPeak := srv.PowerFromGPUs(peakGPU)
		rows = append(rows, Fig11Row{
			Server:        i,
			GPUPeakTDP:    peakGPU / gpuTDP,
			ServerPeakTDP: serverPeak / spec.ProvisionedWatts,
			GPUShare:      peakGPU / serverPeak,
		})
		gpuPeaks = append(gpuPeaks, peakGPU)
		srvPeaks = append(srvPeaks, serverPeak)
	}
	corr, err := stats.Pearson(gpuPeaks, srvPeaks)
	if err != nil {
		corr = 0
	}
	var shareSum float64
	for _, r := range rows {
		shareSum += r.GPUShare
	}
	data := Fig11Data{Rows: rows, MeanGPUShare: shareSum / float64(len(rows)), Correlation: corr}
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet of %d servers: mean GPU share of server power = %s, corr(GPU peak, server peak) = %s\n",
		fleet, pct(data.MeanGPUShare), f3(data.Correlation))
	fmt.Fprintf(&b, "GPU peak/TDP range: %s..%s; server peak/provisioned range: %s..%s\n",
		f2(minOf(rows, func(r Fig11Row) float64 { return r.GPUPeakTDP })),
		f2(maxOf(rows, func(r Fig11Row) float64 { return r.GPUPeakTDP })),
		f2(minOf(rows, func(r Fig11Row) float64 { return r.ServerPeakTDP })),
		f2(maxOf(rows, func(r Fig11Row) float64 { return r.ServerPeakTDP })))
	return Result{Text: b.String(), Data: data}, nil
}

func minOf[T any](xs []T, f func(T) float64) float64 {
	m := f(xs[0])
	for _, x := range xs[1:] {
		if v := f(x); v < m {
			m = v
		}
	}
	return m
}

func maxOf[T any](xs []T, f func(T) float64) float64 {
	m := f(xs[0])
	for _, x := range xs[1:] {
		if v := f(x); v > m {
			m = v
		}
	}
	return m
}

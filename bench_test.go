// Package paper benchmarks regenerate every table and figure of the
// paper's evaluation (one Benchmark per artifact, logging the reproduced
// rows) and measure the throughput of the simulation substrate itself.
//
// Run with:
//
//	go test -bench=. -benchmem
package paper

import (
	"math/rand"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/experiments"
	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/plan"
	"polca/internal/polca"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/trace"
)

// benchExperiment regenerates one paper artifact per iteration and logs its
// rows on the first.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.QuickOptions()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1) // defeat the simulation cache
		res, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s: %s\n%s", res.ID, res.Title, res.Text)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "tab1") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "tab2") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "tab3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "tab4") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "tab5") }
func BenchmarkTable6(b *testing.B)    { benchExperiment(b, "tab6") }
func BenchmarkFigure3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFigure4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTraceFit(b *testing.B)  { benchExperiment(b, "fit") }
func BenchmarkFigure13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFigure15a(b *testing.B) { benchExperiment(b, "fig15a") }
func BenchmarkFigure15b(b *testing.B) { benchExperiment(b, "fig15b") }
func BenchmarkFigure16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFigure18(b *testing.B)  { benchExperiment(b, "fig18") }

// --- Substrate micro-benchmarks ---

// BenchmarkEngineEvents measures raw discrete-event dispatch throughput.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.New(1)
	var tick func(sim.Time)
	n := 0
	tick = func(now sim.Time) {
		n++
		if n < b.N {
			eng.After(time.Millisecond, tick)
		}
	}
	eng.After(time.Millisecond, tick)
	b.ResetTimer()
	eng.Run()
	if n != b.N {
		b.Fatalf("dispatched %d events, want %d", n, b.N)
	}
}

// BenchmarkEnginePeriodic measures dispatch under a row's event mix: the
// row manager's two repeating timers, its 0.25 s telemetry sub-sample and
// its 2 s control tick, beside 16 one-shot timers that re-arm themselves
// like the servers' phase timers. It runs the engine the way a row does,
// through RunUntil, one simulated second at a time; one op is one
// dispatched event.
func BenchmarkEnginePeriodic(b *testing.B) {
	eng := sim.New(1)
	nop := func(sim.Time) {}
	eng.EveryFrom(250*time.Millisecond, 250*time.Millisecond, nop)
	eng.EveryFrom(2*time.Second, 2*time.Second, nop)
	for i := 0; i < 16; i++ {
		d := time.Duration(500+311*i) * time.Millisecond
		var rearm sim.Handler
		rearm = func(sim.Time) { eng.After(d, rearm) }
		eng.After(d, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Dispatched() < uint64(b.N) {
		eng.RunUntil(eng.Now() + time.Second)
	}
}

// BenchmarkQueuePushPop measures heap insert+extract throughput with
// batches of out-of-order events (the queue's steady-state access pattern).
func BenchmarkQueuePushPop(b *testing.B) {
	eng := sim.New(1)
	nop := func(sim.Time) {}
	const batch = 512
	var x uint32 = 1
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		for k := 0; k < batch; k++ {
			x = x*1664525 + 1013904223 // cheap LCG for scattered offsets
			eng.After(time.Duration(x%1000)*time.Millisecond, nop)
		}
		eng.Run()
	}
}

// BenchmarkTimerStop measures the schedule-then-cancel cycle that dominates
// the cluster simulator's phase replanning. Canceled events must not
// accumulate: the engine compacts tombstones, so memory stays bounded no
// matter how many timers a six-week run starts and stops.
func BenchmarkTimerStop(b *testing.B) {
	eng := sim.New(1)
	nop := func(sim.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.AfterCancelable(time.Hour, nop)
		t.Stop()
	}
	if eng.Pending() != 0 {
		b.Fatalf("Pending = %d after stopping every timer, want 0", eng.Pending())
	}
}

// tracerSink is read through a package-level variable so the compiler cannot
// prove the receiver nil and fold the disabled path away — the benchmark must
// measure what instrumented production code actually pays.
var tracerSink *obs.Tracer

// BenchmarkTracerDisabled measures the cost an instrumentation site pays when
// tracing is off (nil tracer). The observability contract in DESIGN.md holds
// this to a couple of nanoseconds and zero allocations.
func BenchmarkTracerDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tracerSink.Emit(obs.Event{
			At:   sim.Time(i) * time.Millisecond,
			Kind: obs.KindCapApply, Server: 3, Pool: obs.PoolLow,
			MHz: 1200, Reason: "rung.engage",
		})
	}
}

// BenchmarkTracerEnabled measures the recording path, periodically resetting
// so the event buffer (and benchmark memory) stays bounded.
func BenchmarkTracerEnabled(b *testing.B) {
	tr := obs.NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(obs.Event{
			At:   sim.Time(i) * time.Millisecond,
			Kind: obs.KindCapApply, Server: 3, Pool: obs.PoolLow,
			MHz: 1200, Reason: "rung.engage",
		})
		if tr.Len() >= 1<<20 {
			tr.Reset()
		}
	}
}

// BenchmarkRand measures named-stream derivation (one per subsystem per
// simulation).
func BenchmarkRand(b *testing.B) {
	eng := sim.New(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.Rand("arrivals") == nil {
			b.Fatal("nil stream")
		}
	}
}

// BenchmarkGPUPhase measures the analytical GPU model.
func BenchmarkGPUPhase(b *testing.B) {
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	p, err := plan.NewInference(plan.InferenceConfig{
		Model: llm.MustByName("BLOOM-176B"), DType: llm.FP16,
		BatchSize: 1, InputTokens: 2048, OutputTokens: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := dev.Run(p.Prompt)
		if e.Duration <= 0 {
			b.Fatal("empty execution")
		}
	}
}

// BenchmarkInferencePlan measures plan construction (done once per request
// in the cluster simulator).
func BenchmarkInferencePlan(b *testing.B) {
	m := llm.MustByName("BLOOM-176B")
	for i := 0; i < b.N; i++ {
		_, err := plan.NewInference(plan.InferenceConfig{
			Model: m, DType: llm.FP16, BatchSize: 1,
			InputTokens: 1024 + i%1024, OutputTokens: 128,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowHour measures end-to-end cluster simulation speed and reports
// simulated-seconds per wall-second.
func BenchmarkRowHour(b *testing.B) {
	cfg := cluster.Production()
	cfg.BaseServers = 40
	shape := cfg.Shape()
	rate := 0.6 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, 60)
	for i := range rates {
		rates[i] = rate
	}
	arrPlan := trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		eng := sim.New(int64(i + 1))
		row := cluster.MustRow(eng, cfg, polca.New(polca.DefaultConfig()))
		m := row.Run(arrPlan)
		if m.Util.Len() == 0 {
			b.Fatal("no telemetry")
		}
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(float64(b.N)*3600/wall, "sim_s/wall_s")
	}
}

// BenchmarkServeDay measures the request-level serving backend end to end:
// one op simulates a full day on a 16-server serve-mode row (continuous
// batching, KV accounting, POLCA capping) and reports wall-clock seconds per
// simulated day plus engine events per wall-second — the numbers the
// BENCH_*.json trajectory tracks for ROADMAP's site-scale goal.
func BenchmarkServeDay(b *testing.B) {
	cfg := cluster.Production()
	cfg.BaseServers = 16
	cfg.Serve = &serve.Config{}
	shape := cfg.Shape()
	rate := 0.6 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, 24*60)
	for i := range rates {
		rates[i] = rate
	}
	arrPlan := trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap}
	b.ResetTimer()
	start := time.Now()
	var events uint64
	for i := 0; i < b.N; i++ {
		eng := sim.New(int64(i + 1))
		row := cluster.MustRow(eng, cfg, polca.New(polca.DefaultConfig()))
		m := row.Run(arrPlan)
		if m.Serve.Batches == 0 {
			b.Fatal("serve row formed no batches")
		}
		events += eng.Dispatched()
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(wall/float64(b.N), "wall_s/day")
		b.ReportMetric(float64(events)/wall, "events/s")
	}
}

// BenchmarkTrainingRowHour measures the training-cluster simulator.
func BenchmarkTrainingRowHour(b *testing.B) {
	cfg := cluster.ProductionTraining()
	for i := 0; i < b.N; i++ {
		util, err := cluster.SimulateTraining(cfg, time.Hour, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			b.Fatal(err)
		}
		if util.Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkReferenceTrace measures synthetic trace generation.
func BenchmarkReferenceTrace(b *testing.B) {
	m := trace.ProductionInference()
	for i := 0; i < b.N; i++ {
		ref := m.Reference(24*time.Hour, rand.New(rand.NewSource(int64(i+1))))
		if ref.Len() == 0 {
			b.Fatal("empty reference")
		}
	}
}

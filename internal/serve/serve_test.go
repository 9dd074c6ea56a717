package serve

import (
	"math"
	"reflect"
	"testing"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/plan"
	"polca/internal/sim"
	"polca/internal/workload"
)

func bloom() llm.Model { return llm.MustByName("BLOOM-176B") }

func newReplica(t testing.TB, eng *sim.Engine, cfg Config, spec gpu.Spec) *Replica {
	t.Helper()
	r, err := NewReplica(eng, cfg, gpu.NewDevice(spec), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	spec := gpu.A100SXM80GB()
	base := Config{Model: bloom(), DType: llm.FP16}
	if err := base.Validate(spec); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative batch size", func(c *Config) { c.MaxBatchSize = -1 }},
		{"budget below batch", func(c *Config) { c.MaxBatchSize = 32; c.MaxBatchTokens = 16 }},
		{"bad mem util", func(c *Config) { c.GPUMemUtil = 1.5 }},
		{"bad queue cap", func(c *Config) { c.QueueCap = -2 }},
		{"bad stride", func(c *Config) { c.DecodeStride = -1 }},
		{"unknown router", func(c *Config) { c.Router = "nope" }},
		{"model too big", func(c *Config) { c.TensorParallel = 1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(spec); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

func TestChunkedPrefill(t *testing.T) {
	eng := sim.New(1)
	rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB())
	var doneAt sim.Time = -1
	rep.OnComplete = func(s *Seq, now sim.Time) { doneAt = now }
	// A 5000-token prompt against the default 2048-token budget prefills
	// in chunks of 2048+2048+904; the last chunk samples the first output
	// token, leaving 3 decode steps (folded into one strided iteration).
	rep.Enqueue(0, workload.Request{ID: 1, Input: 5000, Output: 4})
	eng.RunUntil(time.Hour)

	st := rep.Stats()
	if doneAt < 0 || st.Completed != 1 {
		t.Fatalf("request did not complete: %+v", st)
	}
	if st.PromptTokens != 5000 {
		t.Errorf("PromptTokens = %d, want 5000", st.PromptTokens)
	}
	if st.DecodeTokens != 3 {
		t.Errorf("DecodeTokens = %d, want 3 (first token rides the prefill pass)", st.DecodeTokens)
	}
	if st.Batches != 4 {
		t.Errorf("Batches = %d, want 4 (3 prefill chunks + 1 strided decode)", st.Batches)
	}
	if st.KVReservedTokens != st.KVFreedTokens {
		t.Errorf("KV ledger leaked: reserved %d, freed %d", st.KVReservedTokens, st.KVFreedTokens)
	}
	if !rep.Idle() {
		t.Error("replica not idle after drain")
	}
}

func TestZeroOutputRequestSamplesOneToken(t *testing.T) {
	eng := sim.New(1)
	rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB())
	var done *Seq
	// The *Seq is only valid during the callback (the replica recycles
	// retired sequences), so retain a value copy.
	rep.OnComplete = func(s *Seq, now sim.Time) { cp := *s; done = &cp }
	rep.Enqueue(0, workload.Request{ID: 1, Input: 10, Output: 0})
	eng.RunUntil(time.Hour)
	if done == nil {
		t.Fatal("request did not complete")
	}
	if done.Decoded() != 1 {
		t.Errorf("decoded = %d, want 1", done.Decoded())
	}
	if ttft := done.TTFTSeconds(); ttft <= 0 {
		t.Errorf("TTFT = %v, want > 0", ttft)
	}
	if st := rep.Stats(); st.DecodeTokens != 0 || st.Batches != 1 {
		t.Errorf("stats = %+v, want a single prefill-only batch", st)
	}
}

func TestQueueCapSheds(t *testing.T) {
	eng := sim.New(1)
	rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16, QueueCap: 2}, gpu.A100SXM80GB())
	for i := 0; i < 3; i++ {
		if !rep.Enqueue(0, workload.Request{ID: int64(i), Input: 100, Output: 10}) {
			t.Fatalf("enqueue %d rejected below cap", i)
		}
	}
	// First request went straight into the running batch; two more fill the
	// waiting queue; the fourth must shed.
	if rep.Enqueue(0, workload.Request{ID: 3, Input: 100, Output: 10}) {
		t.Fatal("enqueue above cap accepted")
	}
	if st := rep.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

func TestFailDropsEverythingAndRevives(t *testing.T) {
	eng := sim.New(1)
	rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB())
	drops := map[int64]string{}
	rep.OnDrop = func(s *Seq, now sim.Time, reason string) { drops[s.Req.ID] = reason }
	for i := 0; i < 3; i++ {
		rep.Enqueue(0, workload.Request{ID: int64(i), Input: 500, Output: 50})
	}
	eng.Step() // finish one iteration so state is mid-flight
	rep.Fail(eng.Now())

	if len(drops) != 3 {
		t.Fatalf("dropped %d sequences, want 3", len(drops))
	}
	for id, reason := range drops {
		if reason != "node-death" {
			t.Errorf("request %d dropped with reason %q", id, reason)
		}
	}
	if rep.kvToks != 0 {
		t.Errorf("KV still reserved after Fail: %d tokens", rep.kvToks)
	}
	if st := rep.Stats(); st.KVReservedTokens != st.KVFreedTokens {
		t.Errorf("KV ledger leaked across Fail: reserved %d, freed %d", st.KVReservedTokens, st.KVFreedTokens)
	}
	if !rep.Idle() {
		t.Fatal("replica not idle after Fail")
	}
	if got, _ := rep.PowerUntil(eng.Now()); got != rep.dev.Spec().IdleWatts {
		t.Errorf("idle power = %v, want %v", got, rep.dev.Spec().IdleWatts)
	}

	// The replica revives cold on the next arrival.
	completed := 0
	rep.OnComplete = func(s *Seq, now sim.Time) { completed++ }
	if !rep.Enqueue(eng.Now(), workload.Request{ID: 9, Input: 100, Output: 5}) {
		t.Fatal("enqueue after Fail rejected")
	}
	eng.RunUntil(eng.Now() + time.Hour)
	if completed != 1 {
		t.Errorf("completed = %d after revival, want 1", completed)
	}
}

// TestCalibrationSingleRequest is the slot-vs-serve anchor: a lone request
// scheduled iteration-by-iteration must land within a few percent of the
// slot model's aggregate plan for the same work. The residual divergence is
// structural, not a bug: (1) serve samples the first output token from the
// prefill pass, so it pays output−1 decode passes of weight streaming,
// all-reduce, and launch overhead where the slot token phase pays output;
// (2) serve's decode attention walks the exact growing KV length while the
// slot phase aggregates all steps at the mean length — identical total
// FLOPs/bytes (arithmetic series), but the phase split between
// compute-bound and memory-bound time differs slightly.
func TestCalibrationSingleRequest(t *testing.T) {
	m := bloom()
	const input, output = 1200, 160

	p, err := plan.NewInference(plan.InferenceConfig{
		Model: m, DType: llm.FP16, BatchSize: 1,
		InputTokens: input, OutputTokens: output,
	})
	if err != nil {
		t.Fatal(err)
	}
	slotDev := gpu.NewDevice(gpu.A100SXM80GB())
	slotDev.SetMemUsedGB(p.MemUsedGB)
	var slotSec, slotJ float64
	for _, ph := range p.Phases() {
		exec := slotDev.Run(ph)
		slotSec += exec.Duration.Seconds()
		slotJ += exec.Energy()
	}

	eng := sim.New(1)
	rep := newReplica(t, eng, Config{
		Model: m, DType: llm.FP16,
		MaxBatchSize: 1, MaxBatchTokens: 2048, DecodeStride: 1,
	}, gpu.A100SXM80GB())
	var doneAt sim.Time = -1
	rep.OnComplete = func(s *Seq, now sim.Time) { doneAt = now }
	rep.Enqueue(0, workload.Request{ID: 1, Input: input, Output: output})
	eng.RunUntil(time.Hour)
	if doneAt < 0 {
		t.Fatal("request did not complete")
	}
	st := rep.Stats()
	if st.Batches != output {
		t.Errorf("Batches = %d, want %d (1 prefill + output−1 decode)", st.Batches, output)
	}

	serveSec, serveJ := doneAt.Seconds(), st.EnergyJ
	durErr := math.Abs(serveSec-slotSec) / slotSec
	energyErr := math.Abs(serveJ-slotJ) / slotJ
	t.Logf("duration: slot %.3fs serve %.3fs (%.2f%%); energy/GPU: slot %.0fJ serve %.0fJ (%.2f%%)",
		slotSec, serveSec, 100*durErr, slotJ, serveJ, 100*energyErr)
	if durErr > 0.02 {
		t.Errorf("duration diverges %.1f%% from the slot plan (> 2%%)", 100*durErr)
	}
	if energyErr > 0.02 {
		t.Errorf("energy diverges %.1f%% from the slot plan (> 2%%)", 100*energyErr)
	}
}

// TestDecodeStridePreservesTiming checks the multi-step aggregation is
// cost-exact: folding 8 decode iterations into one strided pass must give
// the same generation timeline (modulo per-iteration nanosecond rounding)
// and the same token/KV accounting as single stepping.
func TestDecodeStridePreservesTiming(t *testing.T) {
	run := func(stride int) (sim.Time, Stats) {
		eng := sim.New(1)
		rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16, DecodeStride: stride}, gpu.A100SXM80GB())
		var doneAt sim.Time = -1
		rep.OnComplete = func(s *Seq, now sim.Time) { doneAt = now }
		rep.Enqueue(0, workload.Request{ID: 1, Input: 64, Output: 33})
		eng.RunUntil(time.Hour)
		return doneAt, rep.Stats()
	}
	t1, s1 := run(1)
	t8, s8 := run(8)
	if s1.Batches != 33 || s8.Batches != 5 {
		t.Errorf("batches = %d/%d, want 33 single-step, 5 strided", s1.Batches, s8.Batches)
	}
	if s1.DecodeTokens != s8.DecodeTokens || s1.PromptTokens != s8.PromptTokens {
		t.Errorf("token counts differ across strides: %+v vs %+v", s1, s8)
	}
	if s1.KVReservedTokens != s8.KVReservedTokens {
		t.Errorf("KV reservations differ across strides: %d vs %d", s1.KVReservedTokens, s8.KVReservedTokens)
	}
	if diff := (t1 - t8).Abs(); diff > time.Microsecond {
		t.Errorf("completion differs by %v across strides, want < 1µs", diff)
	}
}

// pressureConfig squeezes BLOOM-176B onto a shrunken-HBM A100 so a handful
// of mid-size requests oversubscribe the KV cache and force preemptions.
func pressureConfig() (Config, gpu.Spec) {
	spec := gpu.A100SXM80GB()
	spec.MemoryGB = 51 // ~1.9 GB of KV per GPU after weights: ~3786 tokens
	return Config{Model: bloom(), DType: llm.FP16, DecodeStride: 4}, spec
}

// TestKVPressureInvariants drives the scheduler into sustained KV pressure
// and samples the cache-accounting invariants in sim time: occupancy never
// exceeds capacity, the replica ledger always equals the per-sequence sum,
// waiting sequences hold nothing, and per-request KV grows monotonically
// except across a preemption reset. At drain, reserved == freed exactly.
func TestKVPressureInvariants(t *testing.T) {
	cfg, spec := pressureConfig()
	eng := sim.New(1)
	rep := newReplica(t, eng, cfg, spec)

	type snap struct{ kv, preempts int }
	last := map[int64]snap{}
	samples := 0
	eng.Every(10*time.Millisecond, func(now sim.Time) {
		samples++
		if rep.kvToks < 0 || rep.kvToks > rep.kvCapToks {
			t.Fatalf("t=%v: reserved KV %d outside [0, %d]", now, rep.kvToks, rep.kvCapToks)
		}
		sum := 0
		seen := map[int64]snap{}
		rep.Sequences(func(s *Seq) {
			sum += s.KVReserved()
			if s.KVReserved() < s.KVTokens() {
				t.Fatalf("t=%v: req %d reserved %d < materialized %d", now, s.Req.ID, s.KVReserved(), s.KVTokens())
			}
			cur := snap{kv: s.KVTokens(), preempts: s.Preempts()}
			if prev, ok := last[s.Req.ID]; ok && cur.preempts == prev.preempts && cur.kv < prev.kv {
				t.Fatalf("t=%v: req %d KV shrank %d → %d without a preemption", now, s.Req.ID, prev.kv, cur.kv)
			}
			seen[s.Req.ID] = cur
		})
		for i := 0; i < rep.waiting.Len(); i++ {
			s := rep.waiting.At(i)
			if s.KVReserved() != 0 {
				t.Fatalf("t=%v: waiting req %d holds %d KV tokens", now, s.Req.ID, s.KVReserved())
			}
		}
		if sum != rep.kvToks {
			t.Fatalf("t=%v: per-seq KV sum %d != replica ledger %d", now, sum, rep.kvToks)
		}
		last = seen
	})

	const n = 12
	completed := 0
	rep.OnComplete = func(s *Seq, now sim.Time) { completed++ }
	for i := 0; i < n; i++ {
		if !rep.Enqueue(0, workload.Request{ID: int64(i), Input: 600, Output: 300}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	eng.RunUntil(2 * time.Hour)

	st := rep.Stats()
	if completed != n || st.Completed != n {
		t.Fatalf("completed %d/%d under pressure: %+v", completed, n, st)
	}
	if st.Preemptions == 0 {
		t.Fatal("no preemptions — the scenario is not exercising KV pressure")
	}
	if st.KVReservedTokens != st.KVFreedTokens {
		t.Errorf("KV ledger leaked: reserved %d, freed %d", st.KVReservedTokens, st.KVFreedTokens)
	}
	if rep.kvToks != 0 || !rep.Idle() {
		t.Errorf("replica not drained: %d KV tokens, idle=%v", rep.kvToks, rep.Idle())
	}
	if st.KVHighWaterFrac < 0.8 {
		t.Errorf("KV high water %.2f, expected > 0.8 under pressure", st.KVHighWaterFrac)
	}
	if st.KVHighWaterEvents == 0 {
		t.Error("no high-water events recorded")
	}
	if samples == 0 {
		t.Fatal("invariant sampler never ran")
	}
	t.Logf("%d preemptions, high water %.0f%%, %d samples", st.Preemptions, 100*st.KVHighWaterFrac, samples)
}

// TestReplicaDeterminism reruns the preemption-heavy scenario and requires
// identical scheduler counters and per-request completion times — the
// scheduler draws no randomness, so any drift is a bug.
func TestReplicaDeterminism(t *testing.T) {
	run := func() (Stats, map[int64]sim.Time) {
		cfg, spec := pressureConfig()
		eng := sim.New(7)
		rep := newReplica(t, eng, cfg, spec)
		doneAt := map[int64]sim.Time{}
		rep.OnComplete = func(s *Seq, now sim.Time) { doneAt[s.Req.ID] = now }
		for i := 0; i < 12; i++ {
			rep.Enqueue(0, workload.Request{ID: int64(i), Input: 600, Output: 300})
		}
		eng.RunUntil(2 * time.Hour)
		return rep.Stats(), doneAt
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("completion times differ across identical runs")
	}
}

// TestNilObserverEmissionsAllocFree pins the disabled-observability fast
// path: with no observer on the engine, the scheduler's counter and
// tracer touchpoints must not allocate (sweeps run thousands of replicas
// this way).
func TestNilObserverEmissionsAllocFree(t *testing.T) {
	eng := sim.New(1)
	rep := newReplica(t, eng, Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB())
	if rep.tracer != nil {
		t.Fatal("engine without observer produced a tracer")
	}
	allocs := testing.AllocsPerRun(200, func() {
		rep.batchCtr.Inc()
		rep.preemptCtr.Inc()
	})
	if allocs != 0 {
		t.Errorf("nil-observer emissions allocate %.1f objects/op, want 0", allocs)
	}
}

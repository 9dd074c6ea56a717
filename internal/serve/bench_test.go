package serve

import (
	"testing"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/sim"
	"polca/internal/workload"
)

// BenchmarkScheduler measures the continuous-batching iteration loop
// end-to-end: one op enqueues a small request and drives the engine until
// the replica drains (a prefill pass plus one strided decode pass).
func BenchmarkScheduler(b *testing.B) {
	eng := sim.New(1)
	cfg := Config{Model: llm.MustByName("Llama2-13B"), DType: llm.FP16}
	rep, err := NewReplica(eng, cfg, gpu.NewDevice(gpu.A100SXM80GB()), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep.Enqueue(eng.Now(), workload.Request{ID: int64(i), Arrival: eng.Now(), Input: 64, Output: 8})
		for !rep.Idle() {
			if !eng.Step() {
				b.Fatal("engine drained with work pending")
			}
		}
	}
	if rep.Stats().Completed != b.N {
		b.Fatalf("completed %d, want %d", rep.Stats().Completed, b.N)
	}
}

// BenchmarkServeTracerDisabled measures the scheduler's observability
// touchpoints with no observer attached — the sweep configuration, where
// thousands of replica runs must not pay for tracing. The B/op column is
// the contract: it must stay 0.
func BenchmarkServeTracerDisabled(b *testing.B) {
	eng := sim.New(1)
	cfg := Config{Model: llm.MustByName("Llama2-13B"), DType: llm.FP16}
	rep, err := NewReplica(eng, cfg, gpu.NewDevice(gpu.A100SXM80GB()), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if rep.tracer != nil {
		b.Fatal("engine without observer produced a tracer")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep.batchCtr.Inc()
		rep.preemptCtr.Inc()
	}
}

// BenchmarkDecodeSpan measures the decode-span planner, the serve day's
// hot path: one op plans a coalesced span of 16 strided decode segments
// for a batch of 8 sequences on a clock-locked device, so each segment
// prices the batch through the folded model costs and is timed twice,
// capped and uncapped. The span is discarded and planned again from the
// same state each op; it must run at 0 allocs/op.
func BenchmarkDecodeSpan(b *testing.B) {
	eng := sim.New(1)
	cfg := Config{Model: llm.MustByName("Llama2-13B"), DType: llm.FP16}
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	dev.LockClock(dev.Spec().BaseSMClockMHz)
	rep, err := NewReplica(eng, cfg, dev, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rep.Enqueue(eng.Now(), workload.Request{ID: int64(i), Arrival: eng.Now(), Input: 512, Output: 130})
	}
	for len(rep.span) == 0 {
		if !eng.Step() {
			b.Fatal("engine drained before planning a decode span")
		}
	}
	now, seqs, stride := rep.span[0].start, rep.spanSeqs, rep.span[0].stride
	if len(rep.span) != 16 || seqs != 8 {
		b.Fatalf("planned %d segments for %d sequences, want 16 for 8", len(rep.span), seqs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.spanTimer.Stop()
		rep.span = nil
		rep.runSpan(now, seqs, stride)
	}
}

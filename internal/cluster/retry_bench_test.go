package cluster

// White-box benchmark for the serve-mode failover hot path: the retry
// min-heap's push/pop cycle. The heap stores entries by value in a reused
// backing array, so once the array has grown to the steady-state depth the
// cycle must allocate nothing — a requeue storm during a node-death window
// runs inside the simulator's event loop, and an allocation per retry
// would dominate the run. Gated at 0 allocs/op by `polca-bench
// -zero-alloc` in the bench-smoke target.

import (
	"testing"
	"time"

	"polca/internal/sim"
	"polca/internal/workload"
)

func BenchmarkRetryQueue(b *testing.B) {
	const depth = 64 // a hot row's worth of simultaneously backed-off retries
	var q retryQueue
	var seq uint64
	req := workload.Request{Priority: workload.Low, Class: "chat", Input: 512, Output: 128}
	push := func(due sim.Time) {
		seq++
		q.push(retryEntry{due: due, seq: seq, req: req})
	}
	// Pre-grow the backing array to steady state, with adversarial due
	// times so sift-up and sift-down both do real work.
	for i := 0; i < depth; i++ {
		push(sim.Time((depth - i) * int(time.Second)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		// Re-insert with the deterministic exponential backoff the requeue
		// path computes.
		e.req.Retry++
		push(e.due + backoff(time.Second, e.req.Retry))
	}
	if q.len() != depth {
		b.Fatalf("heap depth drifted: %d != %d", q.len(), depth)
	}
}

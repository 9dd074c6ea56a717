package serve

import (
	"math"
	"sort"
	"testing"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// energyRun drives the KV-pressure scenario (preemptions guaranteed) on a
// replica whose device is manipulated by shape, collecting every sequence
// the replica ever released. midCheck, if non-nil, runs at the scenario's
// half-way point with the replica still mid-flight.
func energyRun(t *testing.T, shape func(eng *sim.Engine, rep *Replica, dev *gpu.Device),
	midCheck func(rep *Replica, released []*Seq)) (*Replica, []*Seq) {
	t.Helper()
	cfg, spec := pressureConfig()
	eng := sim.New(3)
	eng.SetObserver(&obs.Observer{Spans: obs.NewSpanTracer()})
	dev := gpu.NewDevice(spec)
	rep, err := NewReplica(eng, cfg, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var done []*Seq
	// Retired *Seq values are recycled after the callback returns; keep
	// value copies.
	keep := func(s *Seq) { cp := *s; done = append(done, &cp) }
	rep.OnComplete = func(s *Seq, now sim.Time) { keep(s) }
	rep.OnDrop = func(s *Seq, now sim.Time, reason string) { keep(s) }
	for i := 0; i < 12; i++ {
		if !rep.Enqueue(0, workload.Request{ID: int64(i), Input: 600, Output: 300, Class: "chat"}) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if shape != nil {
		shape(eng, rep, dev)
	}
	if midCheck != nil {
		eng.RunUntil(30 * time.Second)
		midCheck(rep, done)
	}
	eng.RunUntil(2 * time.Hour)
	if !rep.Idle() {
		t.Fatal("replica did not drain")
	}
	return rep, done
}

// relDiff returns |a-b| / max(|a|,|b|).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// attributedSum sums the group-scale energy attributed to every sequence
// the replica released plus every sequence it still holds.
func attributedSum(rep *Replica, released []*Seq) (j, capSec, capJ float64) {
	for _, s := range released {
		j += s.EnergyJ()
		capSec += s.CapSlowdownSec()
		capJ += s.CapDeltaJ()
	}
	rep.Sequences(func(s *Seq) {
		j += s.EnergyJ()
		capSec += s.CapSlowdownSec()
		capJ += s.CapDeltaJ()
	})
	return j, capSec, capJ
}

// TestEnergyConservationNoCap checks the core attribution invariant on an
// uncapped run with forced preemptions: the per-request energies sum to the
// replica's integrated energy (tensor-parallel group scale) exactly at
// drain, and within 0.1% at an arbitrary mid-run instant; every cap
// counterfactual delta is exactly zero.
func TestEnergyConservationNoCap(t *testing.T) {
	rep, done := energyRun(t, nil, func(rep *Replica, released []*Seq) {
		attr, _, _ := attributedSum(rep, released)
		settled := rep.scale * rep.stats.EnergyJ
		if settled <= 0 {
			t.Fatal("no energy settled by the mid-run checkpoint")
		}
		if rd := relDiff(attr, settled); rd > 0.001 {
			t.Errorf("mid-run: attributed %.1f J vs settled %.1f J (rel %.2e > 0.1%%)", attr, settled, rd)
		}
	})

	st := rep.Stats()
	if st.Preemptions == 0 {
		t.Fatal("scenario produced no preemptions — not the stress case")
	}
	attr, capSec, capJ := attributedSum(rep, done)
	want := rep.scale * st.EnergyJ
	if want <= 0 {
		t.Fatalf("replica integrated no energy: %+v", st)
	}
	if rd := relDiff(attr, want); rd > 1e-9 {
		t.Errorf("at drain: attributed %.3f J vs integrated %.3f J (rel %.2e)", attr, want, rd)
	}
	// An uncapped, never-replanned run computes the counterfactual from the
	// identical execution, so the deltas are exactly zero — not just small.
	if capSec != 0 || capJ != 0 || st.CapExtraSec != 0 || st.CapDeltaJ != 0 {
		t.Errorf("uncapped run has nonzero cap deltas: seq (%g s, %g J), stats (%g s, %g J)",
			capSec, capJ, st.CapExtraSec, st.CapDeltaJ)
	}
}

// TestEnergyConservationCapped repeats the invariant with the POLCA-style
// knobs exercised: the device starts clock-locked, the lock retargets
// mid-run with a Replan (mid-iteration energy banking), and the brake
// engages for a window. Attribution must still sum exactly, and the cap
// counterfactual must show a real slowdown.
func TestEnergyConservationCapped(t *testing.T) {
	rep, done := energyRun(t, func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
		dev.LockClock(1100)
		eng.At(20*time.Second, func(now sim.Time) {
			dev.LockClock(900)
			rep.Replan(now)
		})
		eng.At(40*time.Second, func(now sim.Time) {
			dev.SetBrake(true)
			rep.Replan(now)
		})
		eng.At(60*time.Second, func(now sim.Time) {
			dev.SetBrake(false)
			dev.LockClock(1100)
			rep.Replan(now)
		})
	}, nil)

	st := rep.Stats()
	if st.Preemptions == 0 {
		t.Fatal("scenario produced no preemptions — not the stress case")
	}
	attr, capSec, capJ := attributedSum(rep, done)
	want := rep.scale * st.EnergyJ
	if rd := relDiff(attr, want); rd > 1e-9 {
		t.Errorf("at drain: attributed %.3f J vs integrated %.3f J (rel %.2e)", attr, want, rd)
	}
	if st.CapExtraSec <= 0 {
		t.Errorf("clock-locked run shows no extra seconds vs uncapped: %g", st.CapExtraSec)
	}
	if rd := relDiff(capSec, st.CapExtraSec); rd > 1e-9 {
		t.Errorf("cap seconds: per-seq sum %g vs stats %g", capSec, st.CapExtraSec)
	}
	if rd := relDiff(capJ, rep.scale*st.CapDeltaJ); rd > 1e-9 {
		t.Errorf("cap joules: per-seq sum %g vs stats %g", capJ, rep.scale*st.CapDeltaJ)
	}
}

// TestEnergyConservationAcrossFail kills the replica mid-iteration: the
// cancelled iteration's consumed energy must be settled and attributed, so
// the invariant holds even though every request died.
func TestEnergyConservationAcrossFail(t *testing.T) {
	cfg, spec := pressureConfig()
	eng := sim.New(3)
	dev := gpu.NewDevice(spec)
	rep, err := NewReplica(eng, cfg, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var done []*Seq
	keep := func(s *Seq) { cp := *s; done = append(done, &cp) }
	rep.OnComplete = func(s *Seq, now sim.Time) { keep(s) }
	rep.OnDrop = func(s *Seq, now sim.Time, reason string) { keep(s) }
	for i := 0; i < 12; i++ {
		rep.Enqueue(0, workload.Request{ID: int64(i), Input: 600, Output: 300})
	}
	eng.RunUntil(20 * time.Second)
	if rep.Idle() {
		t.Fatal("replica drained before the failure point")
	}
	rep.Fail(eng.Now())

	st := rep.Stats()
	if st.EnergyJ <= 0 {
		t.Fatal("no energy settled before the failure")
	}
	attr, _, _ := attributedSum(rep, done)
	if rd := relDiff(attr, rep.scale*st.EnergyJ); rd > 1e-9 {
		t.Errorf("after Fail: attributed %.3f J vs integrated %.3f J (rel %.2e)",
			attr, rep.scale*st.EnergyJ, rd)
	}
}

// TestFailSpanStartsAtFormation kills a replica mid-prefill after a clock
// lock has replanned the iteration: the cancelled prefill's span must start
// at the iteration's formation, not at the replan, so the request's
// children cover the time from arrival to death without a gap.
func TestFailSpanStartsAtFormation(t *testing.T) {
	eng := sim.New(1)
	eng.SetObserver(&obs.Observer{Spans: obs.NewSpanTracer()})
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	// A token budget above the prompt runs the whole prefill as one
	// iteration.
	rep, err := NewReplica(eng, Config{Model: bloom(), DType: llm.FP16, MaxBatchTokens: 8192}, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enqueue(0, workload.Request{ID: 1, Input: 6000, Output: 10, Class: "chat"}) {
		t.Fatal("enqueue rejected")
	}
	const replan, death = 357 * time.Millisecond, 535 * time.Millisecond
	eng.At(replan, func(now sim.Time) { dev.LockClock(900); rep.Replan(now) })
	eng.At(death, func(now sim.Time) {
		if rep.Idle() || rep.iterFormedAt != 0 || rep.iterStart != replan {
			t.Fatalf("at death: idle %v, iteration formed at %v, replanned at %v; want one iteration formed at 0 and replanned at %v",
				rep.Idle(), rep.iterFormedAt, rep.iterStart, replan)
		}
		rep.Fail(now)
	})
	eng.RunUntil(time.Second)

	var root obs.Span
	var children []obs.Span
	for _, sp := range rep.spans.Spans() {
		if sp.Kind == obs.SpanRequest {
			root = sp
		} else {
			children = append(children, sp)
		}
	}
	if root.Reason != "node-death" || root.End != death {
		t.Fatalf("root = %+v, want a node-death drop at %v", root, death)
	}
	var prefill *obs.Span
	for i := range children {
		if children[i].Kind == obs.SpanPrefill {
			prefill = &children[i]
		}
	}
	if prefill == nil || prefill.Start != 0 || prefill.End != death {
		t.Fatalf("cancelled prefill span = %+v, want 0 to %v", prefill, death)
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered := root.Start
	for _, sp := range children {
		if sp.Start > covered {
			t.Errorf("children leave %v to %v uncovered", covered, sp.Start)
		}
		covered = max(covered, sp.End)
	}
	if covered != root.End {
		t.Errorf("children cover up to %v, root ends at %v", covered, root.End)
	}
}

// TestSpanTreeStructure validates the span trees the capped pressure run
// emits: one root per request, children pointing at the root, preempt
// markers paired with recompute prefills, and per-request child energies
// summing to the root's attribution (which in turn conserves).
func TestSpanTreeStructure(t *testing.T) {
	rep, done := energyRun(t, func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
		dev.LockClock(1000)
	}, nil)
	spans := rep.spans.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	byReq := map[int64][]obs.Span{}
	for _, sp := range spans {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
	}
	if len(byReq) != 12 {
		t.Fatalf("spans cover %d requests, want 12", len(byReq))
	}
	var rootJ float64
	preempts := 0
	for req, tree := range byReq {
		var root *obs.Span
		var childJ, childCapS float64
		ids := map[int32]bool{}
		for i := range tree {
			sp := tree[i]
			if ids[sp.ID] {
				t.Fatalf("req %d: duplicate span ID %d", req, sp.ID)
			}
			ids[sp.ID] = true
			if sp.Kind == obs.SpanRequest {
				if root != nil {
					t.Fatalf("req %d: two root spans", req)
				}
				root = &tree[i]
				continue
			}
			if sp.Parent != 1 {
				t.Errorf("req %d: child span %d has parent %d, want 1", req, sp.ID, sp.Parent)
			}
			if sp.End < sp.Start {
				t.Errorf("req %d: span %d ends before it starts", req, sp.ID)
			}
			childJ += sp.EnergyJ
			childCapS += sp.CapSec
			switch sp.Kind {
			case obs.SpanPreempt:
				preempts++
				if sp.Start != sp.End {
					t.Errorf("req %d: preempt span has nonzero duration", req)
				}
			case obs.SpanPrefill, obs.SpanDecode:
				if sp.Tokens <= 0 {
					t.Errorf("req %d: %s span carries no tokens", req, sp.Kind)
				}
			}
		}
		if root == nil {
			t.Fatalf("req %d: no root span", req)
		}
		if root.ID != 1 || root.Parent != 0 {
			t.Errorf("req %d: root is (id %d, parent %d), want (1, 0)", req, root.ID, root.Parent)
		}
		if root.TTFTSec <= 0 {
			t.Errorf("req %d: root TTFT %g, want > 0", req, root.TTFTSec)
		}
		if rd := relDiff(childJ, root.EnergyJ); rd > 1e-9 {
			t.Errorf("req %d: child energies %.3f J vs root %.3f J", req, childJ, root.EnergyJ)
		}
		if rd := relDiff(childCapS, root.CapSec); rd > 1e-9 {
			t.Errorf("req %d: child cap seconds %g vs root %g", req, childCapS, root.CapSec)
		}
		if int32(root.Preempts) > 0 {
			recompute := false
			for _, sp := range tree {
				if sp.Kind == obs.SpanPrefill && sp.Recompute {
					recompute = true
				}
			}
			if !recompute {
				t.Errorf("req %d: %d preempts but no recompute prefill span", req, root.Preempts)
			}
		}
		rootJ += root.EnergyJ
	}
	st := rep.Stats()
	if preempts != st.Preemptions {
		t.Errorf("preempt spans %d != Stats.Preemptions %d", preempts, st.Preemptions)
	}
	if rd := relDiff(rootJ, rep.scale*st.EnergyJ); rd > 1e-9 {
		t.Errorf("root span energies %.3f J vs integrated %.3f J (rel %.2e)",
			rootJ, rep.scale*st.EnergyJ, rd)
	}
	// The released sequences and the roots must agree request by request.
	for _, s := range done {
		for _, sp := range byReq[s.Req.ID] {
			if sp.Kind == obs.SpanRequest && sp.EnergyJ != s.EnergyJ() {
				t.Errorf("req %d: root span %.3f J != Seq %.3f J", s.Req.ID, sp.EnergyJ, s.EnergyJ())
			}
		}
	}
}

// TestSpansOffAttributionStillOn pins the gating contract: with no span
// tracer the replica emits nothing, but energy attribution (which the serve
// report and figserve need) still runs and conserves.
func TestSpansOffAttributionStillOn(t *testing.T) {
	cfg, spec := pressureConfig()
	eng := sim.New(3)
	rep, err := NewReplica(eng, cfg, gpu.NewDevice(spec), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.spans != nil {
		t.Fatal("replica without observer has a span tracer")
	}
	var done []*Seq
	rep.OnComplete = func(s *Seq, now sim.Time) { cp := *s; done = append(done, &cp) }
	for i := 0; i < 12; i++ {
		rep.Enqueue(0, workload.Request{ID: int64(i), Input: 600, Output: 300})
	}
	eng.RunUntil(2 * time.Hour)
	attr, _, _ := attributedSum(rep, done)
	if rd := relDiff(attr, rep.scale*rep.stats.EnergyJ); rd > 1e-9 {
		t.Errorf("attribution drifted with spans off: %.3f vs %.3f", attr, rep.scale*rep.stats.EnergyJ)
	}
	for _, s := range done {
		if s.tr != nil {
			t.Fatal("sequence carries span state with tracing off")
		}
	}
}

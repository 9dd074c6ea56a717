package polca_test

import (
	"testing"

	"polca/internal/llm"
	"polca/internal/polca"
	"polca/internal/workload"
)

func TestFrequencyPlannerProfiles(t *testing.T) {
	fp, err := polca.NewFrequencyPlanner(
		llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6(),
		[]float64{1350, 1275, 1110})
	if err != nil {
		t.Fatal(err)
	}
	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		profs := fp.Profiles(pri)
		if len(profs) != 3 {
			t.Fatalf("%v profiles = %d, want 3", pri, len(profs))
		}
		// Deeper caps cost more performance and save more power.
		for i := 1; i < len(profs); i++ {
			if profs[i].ClockMHz >= profs[i-1].ClockMHz {
				t.Fatal("profiles not clock-descending")
			}
			if profs[i].PerfLoss < profs[i-1].PerfLoss-1e-9 {
				t.Errorf("%v: perf loss not monotone: %+v", pri, profs)
			}
			if profs[i].PowerSave < profs[i-1].PowerSave-1e-9 {
				t.Errorf("%v: power save not monotone: %+v", pri, profs)
			}
		}
		// The superlinear trade-off holds in the profiles too.
		last := profs[len(profs)-1]
		if last.PowerSave < last.PerfLoss {
			t.Errorf("%v at %v MHz: save %.3f below loss %.3f", pri, last.ClockMHz, last.PowerSave, last.PerfLoss)
		}
	}
}

func TestDeepestWithin(t *testing.T) {
	fp, err := polca.NewFrequencyPlanner(
		llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6(),
		[]float64{1350, 1275, 1110})
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget allows the deepest candidate.
	if got := fp.DeepestWithin(workload.Low, 0.5); got != 1110 {
		t.Errorf("deep budget -> %v, want 1110", got)
	}
	// A zero budget allows nothing.
	if got := fp.DeepestWithin(workload.Low, 0); got != 0 {
		t.Errorf("zero budget -> %v, want 0", got)
	}
	// Budgets in between pick an intermediate clock.
	mid := fp.DeepestWithin(workload.Low, 0.01)
	if mid == 0 || mid == 1110 {
		t.Logf("1%% budget -> %v MHz (mix-dependent)", mid)
	}
}

func TestPlannerErrors(t *testing.T) {
	if _, err := polca.NewFrequencyPlanner(llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6(), nil); err == nil {
		t.Error("want error for no candidates")
	}
	// A class table with no high-priority traffic cannot be profiled.
	lowOnly := []workload.Class{{Name: "x", PromptMin: 128, PromptMax: 256, OutputMin: 64, OutputMax: 128, Share: 1, LowShare: 1}}
	if _, err := polca.NewFrequencyPlanner(llm.MustByName("BLOOM-176B"), llm.FP16, lowOnly, []float64{1275}); err == nil {
		t.Error("want error for one-sided priority mix")
	}
}

func TestWorkloadAwarePolicy(t *testing.T) {
	planned, err := polca.PlanWorkloadAware(polca.DefaultConfig(),
		llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6())
	if err != nil {
		t.Fatal(err)
	}
	lpBase, lpDeep, hpCap := planned.LPBaseMHz, planned.LPDeepMHz, planned.HPCapMHz
	// Ordering invariants: the T2 LP action is at least as deep as T1's,
	// and the HP cap is gentler than the LP deep cap.
	if lpDeep > lpBase {
		t.Errorf("LP deep %v above LP base %v", lpDeep, lpBase)
	}
	if hpCap < lpDeep {
		t.Errorf("HP cap %v deeper than LP deep %v (priorities inverted)", hpCap, lpDeep)
	}
	// The plan keeps the thresholds; only the clocks move.
	def := polca.DefaultConfig()
	if planned.T1 != def.T1 || planned.T2 != def.T2 || planned.UncapMargin != def.UncapMargin {
		t.Errorf("plan moved the thresholds: %+v", planned)
	}

	// Runs as a dual-threshold controller.
	w := polca.New(planned)
	act := newFake()
	tick(w, act, 0.90)
	if act.locks[workload.Low] != lpDeep {
		t.Errorf("LP lock at T2 = %v, want %v", act.locks[workload.Low], lpDeep)
	}
	tick(w, act, 0.90, 0.90)
	if act.locks[workload.High] != hpCap {
		t.Errorf("HP lock after sustained T2 = %v, want %v", act.locks[workload.High], hpCap)
	}
	tick(w, act, 0.5)
	if act.locks[workload.Low] != 0 || act.locks[workload.High] != 0 {
		t.Error("did not release at low utilization")
	}
}

func TestWorkloadAwarePlansDeeperLPCap(t *testing.T) {
	// The point of the extension: the low-priority SLO budget (5% p50)
	// affords a deeper cap than Table 5's static 1110 MHz, reclaiming more
	// power from the workloads that can afford it — while the strict 1%
	// high-priority budget keeps the HP cap conservative (our profiles rate
	// the static 1305 MHz at just over 1% for the Search-heavy HP mix).
	planned, err := polca.PlanWorkloadAware(polca.DefaultConfig(),
		llm.MustByName("BLOOM-176B"), llm.FP16, workload.Table6())
	if err != nil {
		t.Fatal(err)
	}
	lpDeep, hpCap := planned.LPDeepMHz, planned.HPCapMHz
	if lpDeep > polca.DefaultConfig().LPDeepMHz {
		t.Errorf("planned LP deep cap %v is shallower than the static 1110", lpDeep)
	}
	// The HP cap must respect its own profiled budget.
	fp, err := polca.NewFrequencyPlanner(llm.MustByName("BLOOM-176B"), llm.FP16,
		workload.Table6(), []float64{hpCap})
	if err != nil {
		t.Fatal(err)
	}
	if loss := fp.Profiles(workload.High)[0].PerfLoss; loss > 0.011 {
		t.Errorf("HP cap %v MHz costs %.4f slowdown, above the 1%% budget", hpCap, loss)
	}
}

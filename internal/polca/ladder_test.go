package polca_test

import (
	"testing"

	"polca/internal/polca"
	"polca/internal/workload"
)

func TestLadderValidation(t *testing.T) {
	if _, err := polca.NewLadder("x", nil); err == nil {
		t.Error("empty ladder should fail")
	}
	bad := [][]polca.Rung{
		{{Trigger: 0, Margin: 0.05, LowMHz: 1}},
		{{Trigger: 1.3, Margin: 0.05, LowMHz: 1}},
		{{Trigger: 0.8, Margin: 0, LowMHz: 1}},
		{{Trigger: 0.8, Margin: 0.9, LowMHz: 1}},
		{{Trigger: 0.8, Margin: 0.05}},
		{{Trigger: 0.8, Margin: 0.05, LowMHz: -1, HighMHz: 1305}},
		{{Trigger: 0.8, Margin: 0.05, HighMHz: -1}},
		{{Trigger: 0.8, Margin: 0.05, LowMHz: 1, Delay: -1}},
		{{Trigger: 0.8, Margin: 0.05, LowMHz: 1}, {Trigger: 0.9, Margin: 0.05}},
	}
	for i, rungs := range bad {
		if _, err := polca.NewLadder("x", rungs); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	l, err := polca.NewLadder("", []polca.Rung{{Trigger: 0.8, Margin: 0.05, LowMHz: 1275}})
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "Ladder(1 rungs)" {
		t.Errorf("unnamed ladder is called %q", l.Name())
	}
}

func TestLadderThreePriorityStyle(t *testing.T) {
	// A deeper ladder: three escalating LP actions plus a guarded HP one.
	ladder, err := polca.NewLadder("3-step", []polca.Rung{
		{Trigger: 0.75, Margin: 0.05, LowMHz: 1335},
		{Trigger: 0.82, Margin: 0.05, LowMHz: 1200},
		{Trigger: 0.90, Margin: 0.05, LowMHz: 1050},
		{Trigger: 0.90, Margin: 0.05, HighMHz: 1305, Delay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	act := newFake()
	tick(ladder, act, 0.78)
	if act.locks[workload.Low] != 1335 {
		t.Errorf("first rung lock = %v", act.locks[workload.Low])
	}
	tick(ladder, act, 0.85)
	if act.locks[workload.Low] != 1200 {
		t.Errorf("second rung lock = %v", act.locks[workload.Low])
	}
	tick(ladder, act, 0.91)
	if act.locks[workload.Low] != 1050 {
		t.Errorf("third rung lock = %v", act.locks[workload.Low])
	}
	if act.locks[workload.High] != 0 {
		t.Error("delayed HP rung engaged immediately")
	}
	tick(ladder, act, 0.88) // inside the top rungs' band: holds, does not re-arm
	tick(ladder, act, 0.91)
	if act.locks[workload.High] != 1305 {
		t.Error("delayed HP rung did not engage on the second hot tick")
	}
	if ladder.Stage() != 4 {
		t.Errorf("stage = %d, want all 4 rungs engaged", ladder.Stage())
	}
	// Deep release unlocks everything.
	tick(ladder, act, 0.60)
	if act.locks[workload.Low] != 0 || act.locks[workload.High] != 0 {
		t.Errorf("release failed: %v", act.locks)
	}
}

func TestLadderHysteresisHoldsState(t *testing.T) {
	ladder, err := polca.NewLadder("h", []polca.Rung{
		{Trigger: 0.80, Margin: 0.05, LowMHz: 1275},
	})
	if err != nil {
		t.Fatal(err)
	}
	act := newFake()
	tick(ladder, act, 0.81)
	tick(ladder, act, 0.77) // inside the band
	if act.locks[workload.Low] != 1275 {
		t.Error("released inside the hysteresis band")
	}
	tick(ladder, act, 0.74)
	if act.locks[workload.Low] != 0 {
		t.Error("did not release below the band")
	}
}

func TestLadderDeepestWinsPerPool(t *testing.T) {
	ladder, err := polca.NewLadder("d", []polca.Rung{
		{Trigger: 0.70, Margin: 0.05, LowMHz: 1300, HighMHz: 1100},
		{Trigger: 0.75, Margin: 0.05, LowMHz: 1100, HighMHz: 1305},
	})
	if err != nil {
		t.Fatal(err)
	}
	act := newFake()
	tick(ladder, act, 0.80)
	if act.locks[workload.Low] != 1100 || act.locks[workload.High] != 1100 {
		t.Errorf("deepest engaged clock should win per pool: %v", act.locks)
	}
}

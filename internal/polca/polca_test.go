package polca_test

import (
	"math/rand"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// fakeActuator records the desired pool locks.
type fakeActuator struct {
	locks map[workload.Priority]float64
	obs   *obs.Observer
}

func newFake() *fakeActuator {
	return &fakeActuator{locks: map[workload.Priority]float64{}}
}

func (f *fakeActuator) SetPoolLock(p workload.Priority, mhz float64) { f.locks[p] = mhz }
func (f *fakeActuator) PoolLock(p workload.Priority) float64         { return f.locks[p] }
func (f *fakeActuator) Observer() *obs.Observer                      { return f.obs }

func tick(p cluster.Controller, act *fakeActuator, utils ...float64) {
	now := sim.Time(0)
	for _, u := range utils {
		now += 2 * time.Second
		p.OnTelemetry(now, u, act)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := polca.DefaultConfig()
	if c.T1 != 0.80 || c.T2 != 0.89 {
		t.Errorf("thresholds = %v/%v, want 0.80/0.89 (§6.5)", c.T1, c.T2)
	}
	if c.UncapMargin != 0.05 {
		t.Errorf("uncap margin = %v, want 0.05 (§6.3)", c.UncapMargin)
	}
	if c.LPBaseMHz != 1275 || c.LPDeepMHz != 1110 || c.HPCapMHz != 1305 {
		t.Errorf("frequencies = %v/%v/%v, want Table 5's 1275/1110/1305",
			c.LPBaseMHz, c.LPDeepMHz, c.HPCapMHz)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []polca.Config{
		{},
		{T1: 0.9, T2: 0.8, UncapMargin: 0.05, LPBaseMHz: 1, LPDeepMHz: 1, HPCapMHz: 1},
		{T1: 0.8, T2: 0.89, UncapMargin: 0, LPBaseMHz: 1, LPDeepMHz: 1, HPCapMHz: 1},
		{T1: 0.8, T2: 0.89, UncapMargin: 0.05, LPBaseMHz: 1100, LPDeepMHz: 1200, HPCapMHz: 1},
		{T1: 0.8, T2: 0.89, UncapMargin: 0.05, LPBaseMHz: 0, LPDeepMHz: 0, HPCapMHz: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New with bad config should panic")
		}
	}()
	polca.New(polca.Config{})
}

func TestT1EngagesLowPriorityOnly(t *testing.T) {
	p := polca.New(polca.DefaultConfig())
	act := newFake()
	tick(p, act, 0.82)
	if got := act.locks[workload.Low]; got != 1275 {
		t.Errorf("LP lock = %v, want 1275 at T1 (Table 5)", got)
	}
	if got := act.locks[workload.High]; got != 0 {
		t.Errorf("HP lock = %v, want uncapped at T1", got)
	}
}

func TestT2EscalatesThenCapsHighPriority(t *testing.T) {
	p := polca.New(polca.DefaultConfig())
	act := newFake()
	// First T2 tick: only low priority deep-capped.
	tick(p, act, 0.90)
	if act.locks[workload.Low] != 1110 {
		t.Errorf("LP lock = %v, want 1110 at T2", act.locks[workload.Low])
	}
	if act.locks[workload.High] != 0 {
		t.Errorf("HP must not be capped on the first T2 tick")
	}
	// Still above T2 on later ticks: high priority gets the gentle cap.
	tick(p, act, 0.90, 0.90)
	if act.locks[workload.High] != 1305 {
		t.Errorf("HP lock = %v, want 1305 when T2 persists (Table 5)", act.locks[workload.High])
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	p := polca.New(polca.DefaultConfig())
	act := newFake()
	tick(p, act, 0.82)
	if act.locks[workload.Low] != 1275 {
		t.Fatal("T1 did not engage")
	}
	// Drop just below T1 — within the margin: stays engaged.
	tick(p, act, 0.78)
	if act.locks[workload.Low] != 1275 {
		t.Error("uncapped inside hysteresis band (would cause capping storms)")
	}
	// Below T1 - margin: release.
	tick(p, act, 0.74)
	if act.locks[workload.Low] != 0 {
		t.Error("did not uncap below T1 - margin")
	}
}

func TestT2ReleaseFallsBackToT1(t *testing.T) {
	p := polca.New(polca.DefaultConfig())
	act := newFake()
	tick(p, act, 0.91, 0.91, 0.91) // T2 fully escalated
	if act.locks[workload.High] != 1305 {
		t.Fatal("escalation did not happen")
	}
	// Fall to 0.82: below T2-margin but above T1 → LP back to base clock,
	// HP uncapped.
	tick(p, act, 0.82)
	if act.locks[workload.Low] != 1275 {
		t.Errorf("LP lock = %v, want 1275 after T2 release with T1 held", act.locks[workload.Low])
	}
	if act.locks[workload.High] != 0 {
		t.Errorf("HP lock = %v, want released", act.locks[workload.High])
	}
	if got := p.Stage(); got != 1 {
		t.Errorf("stage = %d, want 1 (T1 only)", got)
	}
}

func TestSingleThresholdBaselines(t *testing.T) {
	lp := polca.NewSingleThresholdLowPri()
	act := newFake()
	tick(lp, act, 0.90)
	if act.locks[workload.Low] != 1110 || act.locks[workload.High] != 0 {
		t.Errorf("1-Thresh-Low-Pri locks = %v", act.locks)
	}
	all := polca.NewSingleThresholdAll()
	act = newFake()
	tick(all, act, 0.90)
	if act.locks[workload.Low] != 1110 || act.locks[workload.High] != 1110 {
		t.Errorf("1-Thresh-All locks = %v", act.locks)
	}
	// Below threshold: nothing.
	act = newFake()
	lp2 := polca.NewSingleThresholdLowPri()
	tick(lp2, act, 0.80)
	if act.locks[workload.Low] != 0 {
		t.Error("1-Thresh engaged below its threshold")
	}
}

func TestNoCapNeverCaps(t *testing.T) {
	act := newFake()
	tick(polca.NoCap{}, act, 0.99, 1.1)
	if act.locks[workload.Low] != 0 || act.locks[workload.High] != 0 {
		t.Errorf("No-cap capped: %v", act.locks)
	}
	if (polca.NoCap{}).Name() != "No-cap" {
		t.Error("name wrong")
	}
}

func TestNames(t *testing.T) {
	if polca.New(polca.DefaultConfig()).Name() != "POLCA(T1=80%,T2=89%)" {
		t.Errorf("name = %q", polca.New(polca.DefaultConfig()).Name())
	}
	if polca.NewSingleThresholdLowPri().Name() != "1-Thresh-Low-Pri(89%)" {
		t.Error("baseline name wrong")
	}
	if polca.NewSingleThresholdAll().Name() != "1-Thresh-All(89%)" {
		t.Error("baseline name wrong")
	}
}

func TestNewNamed(t *testing.T) {
	cfg := polca.DefaultConfig()
	cfg.T1, cfg.T2 = 0.75, 0.85
	for name, want := range map[string]string{
		"polca": "POLCA(T1=75%,T2=85%)",
		"1tl":   "1-Thresh-Low-Pri(89%)",
		"1ta":   "1-Thresh-All(89%)",
		"nocap": "No-cap",
	} {
		ctrl, err := polca.NewNamed(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ctrl.Name() != want {
			t.Errorf("%s builds %q, want %q", name, ctrl.Name(), want)
		}
	}
	if _, err := polca.NewNamed("ladder", cfg); err == nil {
		t.Error("unknown policy name accepted")
	}
	cfg.T2 = cfg.T1
	if _, err := polca.NewNamed("polca", cfg); err == nil {
		t.Error("invalid POLCA config accepted")
	}
}

func TestTrainThresholds(t *testing.T) {
	ref := trace.ProductionInference().Reference(trace.Day, rand.New(rand.NewSource(5)))
	cfg := polca.TrainThresholds(ref, 1.0, 40*time.Second)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rise := ref.MaxRise(40 * time.Second)
	// T2 must leave room for the worst 40 s spike before the brake point.
	if cfg.T2+rise > 1.0+0.011 {
		t.Errorf("T2 %.2f + rise %.3f exceeds the brake point", cfg.T2, rise)
	}
	if cfg.T1 >= cfg.T2 {
		t.Errorf("T1 %v not below T2 %v", cfg.T1, cfg.T2)
	}
	// Degenerate trace falls back to defaults.
	flat := stats.Series{Step: time.Second, Values: []float64{0.5, 0.5, 0.5}}
	got := polca.TrainThresholds(flat, 1.0, 40*time.Second)
	if got.Validate() != nil {
		t.Error("fallback config invalid")
	}
}

// Integration: POLCA on a small oversubscribed row keeps power at bay and
// never brakes, while No-cap crosses the brake threshold.
func TestPolicyOnRowIntegration(t *testing.T) {
	cfg := cluster.Production()
	cfg.BaseServers = 10
	cfg.AddedFraction = 0.3

	mkPlan := func() trace.RatePlan {
		shape := cfg.Shape()
		rate := 0.76 * float64(cfg.Servers()) / shape.MeanServiceSec
		rates := make([]float64, 60)
		for i := range rates {
			rates[i] = rate
		}
		return trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap}
	}

	nocap := cluster.MustRow(sim.New(2), cfg, polca.NoCap{}).Run(mkPlan())
	pol := cluster.MustRow(sim.New(2), cfg, polca.New(polca.DefaultConfig())).Run(mkPlan())

	if pol.Util.Peak() >= nocap.Util.Peak() {
		t.Errorf("POLCA peak %.3f should be below No-cap peak %.3f",
			pol.Util.Peak(), nocap.Util.Peak())
	}
	if pol.LockCommands == 0 {
		t.Error("POLCA never issued capping commands at 95%+ utilization")
	}
	if pol.BrakeEvents > nocap.BrakeEvents {
		t.Errorf("POLCA brakes %d exceed No-cap %d", pol.BrakeEvents, nocap.BrakeEvents)
	}
}

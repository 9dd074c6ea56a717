package polca_test

import (
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// captureCtrl records every reading delivered through the guard.
type captureCtrl struct {
	utils  []float64
	resets int
}

func (c *captureCtrl) Name() string { return "capture" }
func (c *captureCtrl) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	c.utils = append(c.utils, util)
}
func (c *captureCtrl) Reset() { c.resets++ }

// guardTick drives n readings through g at the 2 s telemetry cadence.
func guardTick(g *polca.Guard, act *fakeActuator, utils ...float64) {
	now := sim.Time(0)
	for _, u := range utils {
		now += 2 * time.Second
		g.OnTelemetry(now, u, act)
	}
}

func TestGuardConfigValidation(t *testing.T) {
	if err := polca.DefaultGuardConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*polca.GuardConfig){
		func(c *polca.GuardConfig) { c.Window = 0 },
		func(c *polca.GuardConfig) { c.StuckAfter = 1 },
		func(c *polca.GuardConfig) { c.StuckMinUtil = -0.1 },
		func(c *polca.GuardConfig) { c.FailSafeAfter = 0 },
		func(c *polca.GuardConfig) { c.MaxStep = 0 },
		func(c *polca.GuardConfig) { c.FailSafeLPMHz = 0 },
	}
	for i, mutate := range bad {
		cfg := polca.DefaultGuardConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestGuardPassesCleanReadings(t *testing.T) {
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, polca.DefaultGuardConfig())
	in := []float64{0.60, 0.62, 0.65, 0.63, 0.66, 0.70}
	guardTick(g, newFake(), in...)
	if len(inner.utils) != len(in) {
		t.Fatalf("delivered %d of %d readings", len(inner.utils), len(in))
	}
	for i, u := range in {
		if inner.utils[i] != u {
			t.Errorf("reading %d: got %v, want %v untouched", i, inner.utils[i], u)
		}
	}
	if s := g.Stats(); s.Delivered != len(in) || s.Outliers != 0 || s.StuckTicks != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGuardFiltersSpike(t *testing.T) {
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, polca.DefaultGuardConfig())
	guardTick(g, newFake(), 0.60, 0.61, 0.62, 0.99, 0.62)
	if s := g.Stats(); s.Outliers != 1 {
		t.Fatalf("outliers = %d, want 1; delivered %v", s.Outliers, inner.utils)
	}
	// The spike tick was delivered, but as the window median, not 0.99.
	spiked := inner.utils[3]
	if spiked == 0.99 || spiked > 0.63 {
		t.Errorf("spike delivered as %v, want window median", spiked)
	}
	// A genuine sustained rise passes: the window corroborates it.
	inner.utils = nil
	guardTick(g, newFake(), 0.85, 0.86, 0.87)
	if got := inner.utils[len(inner.utils)-1]; got != 0.87 {
		t.Errorf("sustained rise delivered as %v, want 0.87", got)
	}
}

func TestGuardDownwardJumpPasses(t *testing.T) {
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, polca.DefaultGuardConfig())
	guardTick(g, newFake(), 0.80, 0.81, 0.20)
	// Treating a real reading as too high only caps early; a downward jump
	// must reach the policy immediately so it can uncap.
	if got := inner.utils[2]; got != 0.20 {
		t.Errorf("downward jump delivered as %v, want 0.20", got)
	}
}

func TestGuardStuckSensor(t *testing.T) {
	cfg := polca.DefaultGuardConfig()
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, cfg)
	act := newFake()
	// A busy row frozen at exactly 0.80: after StuckAfter repeats the ticks
	// are discarded and the inner policy is held at the last good reading.
	reads := []float64{0.78, 0.80, 0.80, 0.80, 0.80, 0.80, 0.80}
	guardTick(g, act, reads...)
	s := g.Stats()
	if s.StuckTicks == 0 {
		t.Fatal("frozen busy sensor not detected")
	}
	for _, u := range inner.utils[len(inner.utils)-s.StuckTicks:] {
		if u != inner.utils[len(inner.utils)-s.StuckTicks-1] {
			t.Errorf("stuck tick delivered %v, want hold-last-good", u)
		}
	}
}

func TestGuardIdlePlateauIsNotStuck(t *testing.T) {
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, polca.DefaultGuardConfig())
	// An idle row genuinely plateaus: identical readings below StuckMinUtil
	// must pass untouched.
	reads := make([]float64, 20)
	for i := range reads {
		reads[i] = 0.35
	}
	guardTick(g, newFake(), reads...)
	if s := g.Stats(); s.StuckTicks != 0 || s.Delivered != len(reads) {
		t.Errorf("idle plateau misdetected: %+v", s)
	}
}

func TestGuardFailSafeEngageAndRelease(t *testing.T) {
	cfg := polca.DefaultGuardConfig()
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, cfg)
	act := newFake()

	// One good reading, then a blackout longer than FailSafeAfter.
	g.OnTelemetry(2*time.Second, 0.70, act)
	now := sim.Time(2 * time.Second)
	for i := 0; i < cfg.FailSafeAfter+2; i++ {
		now += 2 * time.Second
		g.OnTelemetryLoss(now, act)
	}
	if !g.FailSafeEngaged() {
		t.Fatal("fail-safe should engage after FailSafeAfter lost ticks")
	}
	if got := act.PoolLock(workload.Low); got != cfg.FailSafeLPMHz {
		t.Errorf("LP lock = %v, want fail-safe %v", got, cfg.FailSafeLPMHz)
	}
	if got := act.PoolLock(workload.High); got != cfg.FailSafeHPMHz {
		t.Errorf("HP lock = %v, want fail-safe %v", got, cfg.FailSafeHPMHz)
	}
	if s := g.Stats(); s.FailSafeEngagements != 1 || s.LostTicks != cfg.FailSafeAfter+2 {
		t.Errorf("stats = %+v", s)
	}
	// Before the fail-safe, the inner policy was held at the last good value.
	for _, u := range inner.utils {
		if u != 0.70 {
			t.Errorf("hold-last-good delivered %v, want 0.70", u)
		}
	}

	// A valid reading releases the fail-safe and resumes delivery.
	delivered := len(inner.utils)
	g.OnTelemetry(now+2*time.Second, 0.55, act)
	if g.FailSafeEngaged() {
		t.Error("fail-safe should release on the first valid reading")
	}
	if len(inner.utils) != delivered+1 || inner.utils[len(inner.utils)-1] != 0.55 {
		t.Errorf("post-release delivery = %v", inner.utils[delivered:])
	}
}

func TestGuardReset(t *testing.T) {
	cfg := polca.DefaultGuardConfig()
	inner := &captureCtrl{}
	g := polca.NewGuard(inner, cfg)
	act := newFake()
	g.OnTelemetry(2*time.Second, 0.7, act)
	for i := 0; i < cfg.FailSafeAfter; i++ {
		g.OnTelemetryLoss(sim.Time(4+2*i)*time.Second, act)
	}
	if !g.FailSafeEngaged() {
		t.Fatal("precondition: fail-safe engaged")
	}
	g.Reset()
	if g.FailSafeEngaged() {
		t.Error("Reset should clear the fail-safe")
	}
	if inner.resets != 1 {
		t.Errorf("inner resets = %d, want 1 (cold restart cascades)", inner.resets)
	}
}

func TestGuardName(t *testing.T) {
	g := polca.NewGuard(polca.NoCap{}, polca.DefaultGuardConfig())
	if got := g.Name(); got != "Guard(No-cap)" {
		t.Errorf("Name() = %q", got)
	}
	if _, ok := g.Inner().(polca.NoCap); !ok {
		t.Error("Inner() should return the wrapped policy")
	}
}

// TestGuardOnTelemetryDoesNotAllocate pins the guarded hot path: with
// tracing off, a tick through the median filter and the wrapped POLCA
// policy, spike suppression and rung changes included, allocates nothing.
func TestGuardOnTelemetryDoesNotAllocate(t *testing.T) {
	g := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
	act := newFake()
	utils := []float64{0.70, 0.82, 0.90, 0.87, 0.99, 0.90, 0.60}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		g.OnTelemetry(sim.Time(i)*2*time.Second, utils[i%len(utils)], act)
		i++
	})
	if allocs != 0 {
		t.Errorf("guarded OnTelemetry allocates %.1f times per tick", allocs)
	}
}

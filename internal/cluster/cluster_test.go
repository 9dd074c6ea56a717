package cluster_test

import (
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// recordingCtrl captures telemetry and optionally requests locks.
type recordingCtrl struct {
	utils   []float64
	lockLP  float64
	lockHP  float64
	applyAt sim.Time
}

func (c *recordingCtrl) Name() string { return "recording" }

func (c *recordingCtrl) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	c.utils = append(c.utils, util)
	if now >= c.applyAt {
		act.SetPoolLock(workload.Low, c.lockLP)
		act.SetPoolLock(workload.High, c.lockHP)
	}
}

// testConfig returns a small fast row.
func testConfig() cluster.RowConfig {
	cfg := cluster.Production()
	cfg.BaseServers = 8
	return cfg
}

// flatPlan returns a constant arrival plan producing roughly the given busy
// fraction on the config's row.
func flatPlan(cfg cluster.RowConfig, busy float64, horizon time.Duration) trace.RatePlan {
	shape := cfg.Shape()
	rate := busy * float64(cfg.Servers()) / shape.MeanServiceSec
	n := int(horizon / time.Minute)
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rate
	}
	return trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap}
}

func runRow(t *testing.T, cfg cluster.RowConfig, ctrl cluster.Controller, plan trace.RatePlan) *cluster.Metrics {
	t.Helper()
	eng := sim.New(cfg.Seed)
	row := cluster.MustRow(eng, cfg, ctrl)
	return row.Run(plan)
}

func TestConfigValidation(t *testing.T) {
	if err := cluster.Production().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*cluster.RowConfig){
		func(c *cluster.RowConfig) { c.BaseServers = 0 },
		func(c *cluster.RowConfig) { c.AddedFraction = -0.1 },
		func(c *cluster.RowConfig) { c.AddedFraction = 1.5 },
		func(c *cluster.RowConfig) { c.LowPriorityFraction = 2 },
		func(c *cluster.RowConfig) { c.ProvisionedPerServerWatts = 0 },
		func(c *cluster.RowConfig) { c.Model.Params = 0 },
		func(c *cluster.RowConfig) { c.TelemetryInterval = 0 },
		func(c *cluster.RowConfig) { c.OOBFailureProb = 1 },
		func(c *cluster.RowConfig) { c.BrakeReleaseUtil = 2 },
		func(c *cluster.RowConfig) { c.PowerIntensity = 0 },
		func(c *cluster.RowConfig) { c.BrakeHold = -time.Second },
		func(c *cluster.RowConfig) { c.Classes = nil },
	}
	for i, mutate := range mutations {
		cfg := cluster.Production()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestOversubscriptionArithmetic(t *testing.T) {
	cfg := cluster.Production()
	if cfg.Servers() != 40 {
		t.Errorf("servers = %d, want 40 (Table 2)", cfg.Servers())
	}
	base := cfg.ProvisionedWatts()
	cfg.AddedFraction = 0.30
	if cfg.Servers() != 52 {
		t.Errorf("servers at +30%% = %d, want 52", cfg.Servers())
	}
	if cfg.ProvisionedWatts() != base {
		t.Error("oversubscription must not grow the power budget")
	}
}

func TestMeanServiceTimes(t *testing.T) {
	cfg := cluster.Production()
	lp := cfg.MeanServiceSeconds(workload.Low)
	hp := cfg.MeanServiceSeconds(workload.High)
	if lp <= 0 || hp <= 0 {
		t.Fatalf("non-positive service times %v/%v", lp, hp)
	}
	// Search and Chat generate far more output tokens than Summarize.
	if hp < 1.4*lp {
		t.Errorf("high-priority service %v should be much longer than low %v", hp, lp)
	}
	if lp < 5 || lp > 60 || hp < 15 || hp > 120 {
		t.Errorf("service times out of BLOOM range: %v / %v", lp, hp)
	}
}

func TestShape(t *testing.T) {
	cfg := cluster.Production()
	shape := cfg.Shape()
	if err := shape.Validate(); err != nil {
		t.Fatal(err)
	}
	if shape.Servers != 40 {
		t.Errorf("shape servers = %d", shape.Servers)
	}
	if shape.BusyServerWatts < 3000 || shape.BusyServerWatts > 4600 {
		t.Errorf("busy server watts = %v, want ~3.9 kW", shape.BusyServerWatts)
	}
	if shape.IdleServerWatts < 1000 || shape.IdleServerWatts > 2200 {
		t.Errorf("idle server watts = %v", shape.IdleServerWatts)
	}
	// Intensity raises busy power.
	cfg.PowerIntensity = 1.05
	if cfg.BusyServerWatts() <= shape.BusyServerWatts {
		t.Error("power intensity should raise busy watts")
	}
}

func TestSteadyStateUtilization(t *testing.T) {
	cfg := testConfig()
	ctrl := &recordingCtrl{}
	met := runRow(t, cfg, ctrl, flatPlan(cfg, 0.6, time.Hour))
	if met.Util.Len() < 1000 {
		t.Fatalf("too few telemetry samples: %d", met.Util.Len())
	}
	// Forward model: util should track UtilFromBusy(0.6) within a few %.
	want := cfg.Shape().UtilFromBusy(0.6)
	got := met.Util.Mean()
	if got < want-0.06 || got > want+0.06 {
		t.Errorf("mean util = %.3f, want ~%.3f", got, want)
	}
	if met.BrakeEvents != 0 {
		t.Errorf("brakes = %d, want 0 at 60%% busy", met.BrakeEvents)
	}
	if met.Completed[workload.Low] == 0 || met.Completed[workload.High] == 0 {
		t.Error("no completions")
	}
	// Latency contains at least the service time.
	if p50 := stats.Percentile(met.LatencySec[workload.Low], 50); p50 < 5 {
		t.Errorf("LP p50 latency = %.1f s, implausibly low", p50)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	a := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.5, 20*time.Minute))
	b := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.5, 20*time.Minute))
	if a.Completed[workload.Low] != b.Completed[workload.Low] ||
		a.Completed[workload.High] != b.Completed[workload.High] {
		t.Fatal("completions differ across identical runs")
	}
	for i := range a.Util.Values {
		if a.Util.Values[i] != b.Util.Values[i] {
			t.Fatal("power series differ across identical runs")
		}
	}
}

func TestOOBPipelineLatency(t *testing.T) {
	cfg := testConfig()
	cfg.OOBFailureProb = 0 // deterministic application
	ctrl := &recordingCtrl{lockLP: 1110, applyAt: 0}
	eng := sim.New(1)
	row := cluster.MustRow(eng, cfg, ctrl)

	// Run a short plan, then verify locks were applied (end state) and
	// that commands were counted.
	met := row.Run(flatPlan(cfg, 0.5, 5*time.Minute))
	locks := row.PoolAppliedLocks(workload.Low)
	for _, l := range locks {
		if l != 1110 {
			t.Fatalf("low-priority lock = %v, want 1110 after OOB application", l)
		}
	}
	for _, l := range row.PoolAppliedLocks(workload.High) {
		if l != 0 {
			t.Fatalf("high-priority lock = %v, want 0", l)
		}
	}
	if met.LockCommands < len(row.PoolAppliedLocks(workload.Low)) {
		t.Errorf("lock commands = %d, want at least one per LP server", met.LockCommands)
	}
	if met.FailedCommands != 0 {
		t.Errorf("failed commands = %d with zero failure probability", met.FailedCommands)
	}
}

func TestOOBFailuresRetried(t *testing.T) {
	cfg := testConfig()
	cfg.OOBFailureProb = 0.5 // very lossy
	ctrl := &recordingCtrl{lockLP: 1110, applyAt: 0}
	eng := sim.New(3)
	row := cluster.MustRow(eng, cfg, ctrl)
	met := row.Run(flatPlan(cfg, 0.5, 30*time.Minute))
	if met.FailedCommands == 0 {
		t.Error("expected some silent OOB failures")
	}
	// Guardrail: despite failures, re-issue converges every server.
	for _, l := range row.PoolAppliedLocks(workload.Low) {
		if l != 1110 {
			t.Fatalf("lock not converged despite retries: %v", l)
		}
	}
	if met.LockCommands <= met.FailedCommands {
		t.Error("command accounting inconsistent")
	}
}

func TestBrakeEngagesAndCounts(t *testing.T) {
	cfg := testConfig()
	cfg.BrakeUtil = 0.5 // force brakes at moderate load
	cfg.BrakeReleaseUtil = 0.45
	met := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.7, time.Hour))
	if met.BrakeEvents == 0 {
		t.Fatal("expected brake events with a low brake threshold")
	}
	// Braked GPUs crawl: latencies must be visibly inflated vs unbraked.
	unbraked := runRow(t, testConfig(), &recordingCtrl{}, flatPlan(testConfig(), 0.7, time.Hour))
	bp99 := stats.Percentile(met.LatencySec[workload.Low], 99)
	up99 := stats.Percentile(unbraked.LatencySec[workload.Low], 99)
	if bp99 < 1.3*up99 {
		t.Errorf("braked p99 %.1f not clearly above unbraked %.1f", bp99, up99)
	}
}

func TestSheddingUnderOverload(t *testing.T) {
	cfg := testConfig()
	met := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 1.4, time.Hour))
	if met.Dropped[workload.Low]+met.Dropped[workload.High] == 0 {
		t.Error("expected drops under 140% offered load")
	}
	// Bounded queueing keeps latencies finite and sane.
	if p99 := stats.Percentile(met.LatencySec[workload.Low], 99); p99 > 600 {
		t.Errorf("p99 latency %.0f s despite bounded buffers", p99)
	}
}

func TestCappingSlowsLowPriority(t *testing.T) {
	cfg := testConfig()
	cfg.OOBFailureProb = 0
	capped := runRow(t, cfg, &recordingCtrl{lockLP: 1110}, flatPlan(cfg, 0.4, time.Hour))
	free := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.4, time.Hour))
	cp50 := stats.Percentile(capped.LatencySec[workload.Low], 50)
	fp50 := stats.Percentile(free.LatencySec[workload.Low], 50)
	if cp50 <= fp50 {
		t.Errorf("capped LP p50 %.2f should exceed uncapped %.2f", cp50, fp50)
	}
	// The slowdown is bounded (memory-bound workload): < 15%.
	if cp50 > 1.15*fp50 {
		t.Errorf("capped LP p50 %.2f implausibly slow vs %.2f", cp50, fp50)
	}
	// Power drops under the cap.
	if capped.Util.Mean() >= free.Util.Mean() {
		t.Error("capping should reduce mean power")
	}
}

func TestPowerIntensityRaisesUtil(t *testing.T) {
	base := testConfig()
	hot := testConfig()
	hot.PowerIntensity = 1.05
	mBase := runRow(t, base, &recordingCtrl{}, flatPlan(base, 0.6, 30*time.Minute))
	mHot := runRow(t, hot, &recordingCtrl{}, flatPlan(hot, 0.6, 30*time.Minute))
	if mHot.Util.Mean() <= mBase.Util.Mean() {
		t.Error("+5% intensity should raise utilization")
	}
	ratio := mHot.Util.Mean() / mBase.Util.Mean()
	if ratio < 1.02 || ratio > 1.08 {
		t.Errorf("intensity ratio = %.3f, want ~1.04", ratio)
	}
}

func TestThroughputHelper(t *testing.T) {
	m := cluster.Metrics{
		Config:    cluster.RowConfig{BaseServers: 10, LowPriorityFraction: 1},
		Completed: map[workload.Priority]int{workload.Low: 100},
		Util:      stats.Series{Step: time.Second, Values: make([]float64, 100)},
	}
	if got := m.Throughput(workload.Low); got != 0.1 {
		t.Errorf("throughput = %v, want 0.1", got)
	}
	if m.Throughput(workload.High) != 0 {
		t.Error("zero servers should yield zero throughput")
	}
}

// TestMetricsDerivedNumbers pins each number the figures and polca-sim
// read off a run's counters on a hand-built Metrics. A class with no
// arrivals or no tokens reads 0 and stays out of the Jain index.
func TestMetricsDerivedNumbers(t *testing.T) {
	m := &cluster.Metrics{
		Config:       cluster.RowConfig{Classes: workload.Table6()},
		ClassEnergyJ: map[string]float64{"chat": 300, "search": 50},
		ClassTokens:  map[string]int64{"chat": 100, "search": 0},
		ClassArrived: map[string]int{"chat": 4, "search": 2},
		ClassSLOOK:   map[string]int{"chat": 3, "search": 2},
		ClassShed:    map[string]int{"chat": 1, "summarize": 2},
	}
	prod := cluster.Production()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"J/token", m.ClassJPerToken("chat"), 3},
		{"J/token, no tokens", m.ClassJPerToken("search"), 0},
		{"J/token, no class entry", m.ClassJPerToken("summarize"), 0},
		{"attainment", m.ClassAttainment("chat"), 0.75},
		{"attainment, all met", m.ClassAttainment("search"), 1},
		{"attainment, no arrivals", m.ClassAttainment("summarize"), 0},
		{"Jain over the classes with arrivals", m.AttainmentJain(), 1.75 * 1.75 / (2 * (0.75*0.75 + 1))},
		{"Jain, no arrivals", (&cluster.Metrics{Config: m.Config}).AttainmentJain(), 1},
		{"class sheds", float64(m.ClassSheds()), 3},
		{"class sheds, none", float64((&cluster.Metrics{}).ClassSheds()), 0},
		{"brake safety bound (s)", prod.BrakeSafetyBound().Seconds(), 5 + 30 + 2*2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPoolSizes(t *testing.T) {
	cfg := testConfig()
	cfg.LowPriorityFraction = 0.25
	eng := sim.New(1)
	row := cluster.MustRow(eng, cfg, &recordingCtrl{})
	lp, hp := len(row.PoolAppliedLocks(workload.Low)), len(row.PoolAppliedLocks(workload.High))
	if lp != 2 || hp != 6 {
		t.Errorf("pool sizes = %d/%d, want 2/6", lp, hp)
	}
}

func TestNewRowInvalidConfig(t *testing.T) {
	if _, err := cluster.NewRow(sim.New(1), cluster.RowConfig{}, &recordingCtrl{}); err == nil {
		t.Error("invalid config should return an error")
	}
}

func TestMustRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRow with invalid config should panic")
		}
	}()
	cluster.MustRow(sim.New(1), cluster.RowConfig{}, &recordingCtrl{})
}

func TestNewRowNilControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil controller should panic (programmer error)")
		}
	}()
	cluster.NewRow(sim.New(1), testConfig(), nil) //nolint:errcheck // panics before returning
}

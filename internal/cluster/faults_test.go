package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

func mustSpec(t *testing.T, text string) faults.Spec {
	t.Helper()
	s, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flipLockCtrl asserts one lock until flipAt, then another: the simplest
// way to put a superseded command in flight deterministically.
type flipLockCtrl struct {
	first, second float64
	flipAt        time.Duration
}

func (c *flipLockCtrl) Name() string { return "fliplock" }
func (c *flipLockCtrl) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	v := c.first
	if time.Duration(now) >= c.flipAt {
		v = c.second
	}
	act.SetPoolLock(workload.Low, v)
	act.SetPoolLock(workload.High, v)
}

// TestStaleOOBCommands is the regression test for superseded in-flight
// commands: the first command (1500 MHz) is still in the 40 s OOB pipe
// when the controller changes its mind (1110 MHz). With DropStaleOOB the
// landing is discarded and traced; without it the outdated lock applies —
// the historical behaviour the paper figures are pinned to.
func TestStaleOOBCommands(t *testing.T) {
	run := func(drop bool) (*cluster.Metrics, *obs.Tracer) {
		cfg := testConfig()
		cfg.OOBFailureProb = 0 // every landing is deterministic
		cfg.DropStaleOOB = drop
		ctrl := &flipLockCtrl{first: 1500, second: 1110, flipAt: 10 * time.Second}
		m, _, o := runObservedRow(t, cfg, ctrl, 0.3, 2*time.Minute)
		return m, o.Tracer
	}

	m, tr := run(true)
	servers := testConfig().Servers()
	if m.StaleOOBDrops != servers {
		t.Errorf("StaleOOBDrops = %d, want one per server (%d)", m.StaleOOBDrops, servers)
	}
	if got := tr.CountKind(obs.KindOOBStale); got != m.StaleOOBDrops {
		t.Errorf("oob.stale events = %d, StaleOOBDrops = %d", got, m.StaleOOBDrops)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindCapApply && ev.MHz == 1500 {
			t.Fatalf("superseded 1500 MHz lock applied at %v despite DropStaleOOB", ev.At)
		}
		if ev.Kind == obs.KindOOBStale && (ev.MHz != 1500 || ev.Value != 1110) {
			t.Errorf("stale event should carry old target 1500 and current 1110, got %v/%v", ev.MHz, ev.Value)
		}
	}

	m, tr = run(false)
	if m.StaleOOBDrops != 0 {
		t.Errorf("legacy mode recorded %d stale drops, want 0", m.StaleOOBDrops)
	}
	applied1500 := 0
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindCapApply && ev.MHz == 1500 {
			applied1500++
		}
	}
	if applied1500 != servers {
		t.Errorf("legacy mode applied the outdated lock on %d servers, want %d", applied1500, servers)
	}
}

// TestWatchdogEngagesWithinK: the deadman self-caps on exactly the K-th
// silent epoch after a controller crash, and releases on restart.
func TestWatchdogEngagesWithinK(t *testing.T) {
	const k = 5
	cfg := testConfig()
	cfg.WatchdogEpochs = k
	cfg.Faults = mustSpec(t, "crash=1m+30")
	m, _, o := runObservedRow(t, cfg, polca.New(polca.DefaultConfig()), 0.5, 5*time.Minute)
	if m.WatchdogEngagements != 1 {
		t.Fatalf("WatchdogEngagements = %d, want 1", m.WatchdogEngagements)
	}
	tr := o.Tracer
	var crashAt, engageAt, restartAt, releaseAt time.Duration = -1, -1, -1, -1
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindCtrlCrash:
			if crashAt < 0 {
				crashAt = time.Duration(ev.At)
			}
		case obs.KindWatchdogEngage:
			engageAt = time.Duration(ev.At)
		case obs.KindCtrlRestart:
			restartAt = time.Duration(ev.At)
		case obs.KindWatchdogRelease:
			releaseAt = time.Duration(ev.At)
		}
	}
	if crashAt < 0 || engageAt < 0 || restartAt < 0 || releaseAt < 0 {
		t.Fatalf("missing lifecycle events: crash %v engage %v restart %v release %v",
			crashAt, engageAt, restartAt, releaseAt)
	}
	// The crash tick itself is silent epoch 1, so engagement lands K-1
	// intervals later.
	if want := crashAt + (k-1)*cfg.TelemetryInterval; engageAt != want {
		t.Errorf("watchdog engaged at %v, want %v (within %d epochs of silence)", engageAt, want, k)
	}
	if releaseAt != restartAt {
		t.Errorf("watchdog released at %v, want on restart contact at %v", releaseAt, restartAt)
	}
	// While engaged, the row's desired locks are the conservative caps.
	if m.Faults.CtrlCrashTicks == 0 {
		t.Error("injector should report crash ticks")
	}
}

// hardenedConfig is the full degradation stack on a small hot row with a
// reachable brake threshold.
func hardenedConfig(t *testing.T, spec string) cluster.RowConfig {
	t.Helper()
	cfg := testConfig()
	cfg.AddedFraction = 0.30
	cfg.BrakeUtil = 0.90
	cfg.BrakeReleaseUtil = 0.80
	cfg.Faults = mustSpec(t, spec)
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	return cfg
}

// TestSafetyInvariantUnderFaults is the acceptance-criteria anchor: under
// every injected scenario, the row's physical power may exceed the breaker
// threshold only for one contiguous excursion bounded by the brake engage
// latency plus its hold — the brake sees ground truth below every faultable
// sensor, so no fault class can defeat it.
func TestSafetyInvariantUnderFaults(t *testing.T) {
	scenarios := map[string]string{
		"blackout": "tblackout=2m+2m",
		"crash":    "crash=2m+60",
		"oobburst": "oobburst=2m+3m,ooblat=2",
		"combined": "tdrop=0.1,tspike=0.05:0.5,tstuck=2m+1m,tblackout=4m+30s," +
			"crash=5m+30,miss=0.05,oobburst=7m+1m,ooblat=1.5,kill=1@9m+1m,slow=1:1.5",
	}
	policies := map[string]func() cluster.Controller{
		"nocap": func() cluster.Controller { return polca.NoCap{} },
		"polca-hardened": func() cluster.Controller {
			return polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
		},
	}
	for sname, spec := range scenarios {
		for pname, mk := range policies {
			t.Run(sname+"/"+pname, func(t *testing.T) {
				cfg := hardenedConfig(t, spec)
				m := runRow(t, cfg, mk(), flatPlan(cfg, 0.98, 12*time.Minute))
				bound := cfg.BrakeSafetyBound()
				if worst := m.Util.LongestRunAbove(cfg.BrakeUtil); worst > bound {
					t.Errorf("power above breaker limit for %v contiguous, bound %v (brakes %d)",
						worst, bound, m.BrakeEvents)
				}
				// The invariant must not hold vacuously: the uncontrolled
				// policy at this load genuinely breaches, so the brake — the
				// only thing bounding it — must have fired.
				if pname == "nocap" && m.BrakeEvents == 0 {
					t.Error("nocap run never braked; the scenario is not stressing the breaker")
				}
			})
		}
	}
}

// TestFaultInjectionDeterministic: same seed + same spec ⇒ the same run,
// event for event.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (*cluster.Metrics, []obs.Event) {
		cfg := hardenedConfig(t, "tdrop=0.1,tspike=0.05:0.5,crash=2m+30,oobburst=4m+1m,kill=1@6m+1m,slow=1:1.5")
		ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
		m, _, o := runObservedRow(t, cfg, ctrl, 0.9, 8*time.Minute)
		return m, o.Tracer.Events()
	}
	m1, ev1 := run()
	m2, ev2 := run()
	if !reflect.DeepEqual(m1.Util.Values, m2.Util.Values) {
		t.Error("utilization series differ between identical runs")
	}
	if m1.Faults != m2.Faults {
		t.Errorf("injected counts differ: %+v vs %+v", m1.Faults, m2.Faults)
	}
	if m1.StaleOOBDrops != m2.StaleOOBDrops || m1.OOBRetries != m2.OOBRetries ||
		m1.WatchdogEngagements != m2.WatchdogEngagements || m1.NodeDeaths != m2.NodeDeaths {
		t.Error("degradation counters differ between identical runs")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event streams differ in length: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}

// TestQuiescentHardeningDoesNotPerturb: arming the watchdog and the retry
// budget (without backoff) on a fault-free run must not change a single
// sample — the zero-perturbation guarantee that keeps the paper figures
// byte-identical.
func TestQuiescentHardeningDoesNotPerturb(t *testing.T) {
	base := testConfig()
	base.AddedFraction = 0.30
	hard := base
	hard.WatchdogEpochs = 50
	hard.OOBRetryBudget = 1 << 20
	plan := flatPlan(base, 0.9, 10*time.Minute)
	m1 := runRow(t, base, polca.New(polca.DefaultConfig()), plan)
	m2 := runRow(t, hard, polca.New(polca.DefaultConfig()), plan)
	if !reflect.DeepEqual(m1.Util.Values, m2.Util.Values) {
		t.Error("quiescent hardening changed the utilization series")
	}
	if m1.LockCommands != m2.LockCommands || m1.FailedCommands != m2.FailedCommands ||
		m1.BrakeEvents != m2.BrakeEvents {
		t.Errorf("quiescent hardening changed OOB/brake behaviour: %d/%d/%d vs %d/%d/%d",
			m1.LockCommands, m1.FailedCommands, m1.BrakeEvents,
			m2.LockCommands, m2.FailedCommands, m2.BrakeEvents)
	}
	if m2.WatchdogEngagements != 0 || m2.OOBRetriesExhausted != 0 || m2.StaleOOBDrops != 0 {
		t.Error("quiescent run should never trip a degradation path")
	}
}

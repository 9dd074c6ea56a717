package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/workload"
)

// serveFTConfig is the full serve-mode fault-tolerance stack on a small
// hot row: OOB hardening plus request failover, class shedding, circuit
// breaking, and watchdog drain.
func serveFTConfig(t *testing.T, spec string) cluster.RowConfig {
	t.Helper()
	cfg := serveConfig()
	cfg.AddedFraction = 0.30
	cfg.BrakeUtil = 0.90
	cfg.BrakeReleaseUtil = 0.80
	cfg.Faults = mustSpec(t, spec)
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	cfg.ServeRetries = 3
	cfg.ServeRetryBackoff = 2 * time.Second
	cfg.ServeClassShed = true
	cfg.ServeCircuitSheds = 10
	cfg.WatchdogDrain = true
	return cfg
}

func totals(m map[workload.Priority]int) int {
	return m[workload.Low] + m[workload.High]
}

// TestServeFailoverBeatsDropOnly is the failover acceptance anchor: under
// node-death chaos, arming the retry budget must strictly beat the
// drop-only baseline on completed requests — the whole point of cluster-
// level requeue is that a node death costs a recompute, not the request.
func TestServeFailoverBeatsDropOnly(t *testing.T) {
	run := func(retries int) *cluster.Metrics {
		cfg := serveConfig()
		cfg.Faults = mustSpec(t, "kill=6@8m+4m")
		cfg.ServeRetries = retries
		cfg.ServeRetryBackoff = 2 * time.Second
		return runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.9, 20*time.Minute))
	}
	base := run(0)
	ft := run(3)
	if totals(base.Arrived) != totals(ft.Arrived) {
		t.Fatalf("arrivals differ (%d vs %d): runs are not comparable", totals(base.Arrived), totals(ft.Arrived))
	}
	if totals(base.Dropped) == 0 {
		t.Fatal("drop-only baseline lost nothing; the kill window is not stressing the row")
	}
	if ft.ServeRetries == 0 {
		t.Error("failover run recorded no retries")
	}
	if totals(ft.Completed) <= totals(base.Completed) {
		t.Errorf("failover completed %d, drop-only baseline %d — retries must strictly help",
			totals(ft.Completed), totals(base.Completed))
	}
	if totals(ft.Dropped) >= totals(base.Dropped) {
		t.Errorf("failover dropped %d, baseline %d — retries must strictly reduce losses",
			totals(ft.Dropped), totals(base.Dropped))
	}
	// Conservation: every first admission either completes or is dropped
	// exactly once, retries notwithstanding.
	for _, m := range []*cluster.Metrics{base, ft} {
		if totals(m.Arrived) != totals(m.Completed)+totals(m.Dropped) {
			t.Errorf("arrived %d != completed %d + dropped %d",
				totals(m.Arrived), totals(m.Completed), totals(m.Dropped))
		}
	}
	t.Logf("baseline: %d/%d completed; failover: %d/%d completed, %d retries (%d exhausted)",
		totals(base.Completed), totals(base.Arrived),
		totals(ft.Completed), totals(ft.Arrived), ft.ServeRetries, ft.ServeRetryExhausted)
}

// TestServeClassShedProtectsCritical is the degradation acceptance anchor:
// under a sustained power emergency, SLO-class-aware shedding must keep
// the critical mixed-interactive class (chat) strictly better on TTFT SLO
// attainment than class-blind admission, by spending the batch class first.
func TestServeClassShedProtectsCritical(t *testing.T) {
	run := func(classShed bool) *cluster.Metrics {
		cfg := serveConfig()
		cfg.AddedFraction = 0.30
		cfg.BrakeUtil = 0.90
		cfg.BrakeReleaseUtil = 0.80
		// Tight TTFT SLO plus sustained overload: during brake windows the
		// capped row prefills slowly, so class-blind admission queues chat
		// behind batch work past the SLO; shedding batch first frees those
		// slots for chat.
		cfg.TTFTSLO = 3 * time.Second
		cfg.ServeClassShed = classShed
		return runRow(t, cfg, polca.New(polca.DefaultConfig()), flatPlan(cfg, 1.15, 20*time.Minute))
	}
	blind := run(false)
	shed := run(true)
	frac := func(m *cluster.Metrics) float64 {
		if m.ClassArrived["chat"] == 0 {
			t.Fatal("no chat arrivals; scenario is vacuous")
		}
		return float64(m.ClassSLOOK["chat"]) / float64(m.ClassArrived["chat"])
	}
	blindFrac, shedFrac := frac(blind), frac(shed)
	sheds := 0
	for _, v := range shed.ClassShed {
		sheds += v
	}
	if sheds == 0 {
		t.Fatal("class shedding never engaged; the emergency is not sustained enough")
	}
	if shed.ClassShed["chat"] != 0 {
		t.Errorf("shed %d chat requests; the critical class must be shed last", shed.ClassShed["chat"])
	}
	if shedFrac <= blindFrac {
		t.Errorf("chat SLO attainment %.3f with class shedding, %.3f class-blind — shedding must strictly protect the critical class",
			shedFrac, blindFrac)
	}
	t.Logf("chat SLO attainment: class-blind %.3f, class-shed %.3f (%d sheds, brakes %d→%d)",
		blindFrac, shedFrac, sheds, blind.BrakeEvents, shed.BrakeEvents)
}

// TestServeSafetyInvariantUnderFaults extends the acceptance-criteria
// safety anchor to the serving backend with the full fault-tolerance stack
// armed: across every chaos scenario, physical power may exceed the
// breaker threshold only for one excursion bounded by the brake engage
// latency plus its hold — failover and class shedding must never keep a
// row hot past the brake.
func TestServeSafetyInvariantUnderFaults(t *testing.T) {
	scenarios := map[string]string{
		"node-death": "kill=4@4m+2m,drain=2@8m+1m",
		"oob-burst":  "oobburst=5m+2m,ooblat=2",
		"crash":      "crash=5m+40,miss=0.02",
		"blackout":   "tdrop=0.05,tblackout=6m+40s",
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
				cfg := serveFTConfig(t, spec)
				m := runRow(t, cfg, mk(), flatPlan(cfg, 0.98, 12*time.Minute))
				bound := cfg.BrakeSafetyBound()
				if worst := m.Util.LongestRunAbove(cfg.BrakeUtil); worst > bound {
					t.Errorf("power above breaker limit for %v contiguous, bound %v (brakes %d)",
						worst, bound, m.BrakeEvents)
				}
				if pname == "nocap" && m.BrakeEvents == 0 {
					t.Error("nocap run never braked; the scenario is not stressing the breaker")
				}
			})
		}
	}
}

// TestServeFaultToleranceDeterministic: the retry, health, and shedding
// paths must be deterministic — same seed, same spec, same run, event for
// event.
func TestServeFaultToleranceDeterministic(t *testing.T) {
	run := func() (*cluster.Metrics, []obs.Event) {
		cfg := serveFTConfig(t, "tdrop=0.1,crash=2m+30,oobburst=4m+1m,kill=2@5m+2m,drain=1@8m+1m")
		ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
		m, _, o := runObservedRow(t, cfg, ctrl, 0.9, 10*time.Minute)
		return m, o.Tracer.Events()
	}
	m1, ev1 := run()
	m2, ev2 := run()
	if !reflect.DeepEqual(m1.Util.Values, m2.Util.Values) {
		t.Error("utilization series differ between identical runs")
	}
	if m1.ServeRetries != m2.ServeRetries || m1.ServeRetryExhausted != m2.ServeRetryExhausted ||
		m1.CircuitOpens != m2.CircuitOpens || m1.NodeDrains != m2.NodeDrains {
		t.Error("fault-tolerance counters differ between identical runs")
	}
	if !reflect.DeepEqual(m1.ClassShed, m2.ClassShed) || !reflect.DeepEqual(m1.ClassSLOOK, m2.ClassSLOOK) {
		t.Error("per-class goodput accounting differs between identical runs")
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

// TestServeKVConservationAcrossFailover: a node death frees the dead
// replica's KV reservations, the revived node comes back cold, and retried
// re-admissions reserve afresh — the row-wide ledger must still balance
// exactly at drain.
func TestServeKVConservationAcrossFailover(t *testing.T) {
	cfg := serveConfig()
	cfg.Faults = mustSpec(t, "kill=4@5m+2m")
	cfg.ServeRetries = 5
	cfg.ServeRetryBackoff = 2 * time.Second
	m := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.8, 16*time.Minute))
	if m.NodeDeaths == 0 {
		t.Fatal("kill window injected no node deaths")
	}
	if m.ServeRetries == 0 {
		t.Fatal("node deaths triggered no failover retries; scenario is vacuous")
	}
	if m.Serve.KVReservedTokens != m.Serve.KVFreedTokens {
		t.Errorf("KV ledger leaked across failover: reserved %d, freed %d",
			m.Serve.KVReservedTokens, m.Serve.KVFreedTokens)
	}
	if totals(m.Arrived) != totals(m.Completed)+totals(m.Dropped) {
		t.Errorf("request conservation broken: arrived %d, completed %d, dropped %d",
			totals(m.Arrived), totals(m.Completed), totals(m.Dropped))
	}
}

// TestServeQuiescentFTDoesNotPerturb: arming every fault-tolerance knob on
// a fault-free run must not change a single sample — the zero-perturbation
// guarantee that keeps the serve figures byte-identical.
func TestServeQuiescentFTDoesNotPerturb(t *testing.T) {
	base := serveConfig()
	hard := base
	hard.ServeRetries = 3
	hard.ServeRetryBackoff = 2 * time.Second
	hard.ServeClassShed = true
	hard.ServeCircuitSheds = 10
	hard.WatchdogDrain = true
	hard.WatchdogEpochs = 50
	// Moderate load on purpose: a hotter row would engage the brake, and
	// class shedding responding to a real power emergency is not a
	// perturbation — it is the feature. Quiescent means no faults AND no
	// emergency.
	plan := flatPlan(base, 0.6, 10*time.Minute)
	m1 := runRow(t, base, polca.New(polca.DefaultConfig()), plan)
	m2 := runRow(t, hard, polca.New(polca.DefaultConfig()), plan)
	if !reflect.DeepEqual(m1.Util.Values, m2.Util.Values) {
		t.Error("quiescent fault tolerance changed the utilization series")
	}
	if !reflect.DeepEqual(m1.Completed, m2.Completed) || !reflect.DeepEqual(m1.Dropped, m2.Dropped) {
		t.Error("quiescent fault tolerance changed request outcomes")
	}
	if m1.Serve.Batches != m2.Serve.Batches || m1.Serve.DecodeTokens != m2.Serve.DecodeTokens {
		t.Error("quiescent fault tolerance changed scheduler behaviour")
	}
	if m2.ServeRetries != 0 || m2.ServeRetryExhausted != 0 || m2.CircuitOpens != 0 || m2.NodeDrains != 0 {
		t.Errorf("quiescent run tripped a fault-tolerance path: %+v", m2)
	}
	for class, n := range m2.ClassShed {
		if n != 0 {
			t.Errorf("quiescent run shed %d %s requests", n, class)
		}
	}
}

// TestServeDrainWindows: an injected maintenance drain must take replicas
// out of routing without losing their in-flight work — admissions go
// elsewhere, running requests finish, and the window is counted once.
func TestServeDrainWindows(t *testing.T) {
	cfg := serveConfig()
	cfg.Faults = mustSpec(t, "drain=3@4m+2m")
	m := runRow(t, cfg, &recordingCtrl{}, flatPlan(cfg, 0.5, 12*time.Minute))
	if m.NodeDrains != 3 {
		t.Errorf("NodeDrains = %d, want 3 (one per drained server)", m.NodeDrains)
	}
	if m.NodeDeaths != 0 {
		t.Errorf("drain window killed %d nodes; maintenance must be graceful", m.NodeDeaths)
	}
	if d := totals(m.Dropped); d != 0 {
		t.Errorf("graceful drain dropped %d requests; in-flight work must finish and admissions must route around", d)
	}
	if m.Serve.KVReservedTokens != m.Serve.KVFreedTokens {
		t.Errorf("KV ledger leaked across drain: reserved %d, freed %d",
			m.Serve.KVReservedTokens, m.Serve.KVFreedTokens)
	}
}

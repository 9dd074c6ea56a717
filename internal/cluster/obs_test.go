package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/workload"
)

// newObservedRow builds a row with the full observability stack attached
// — tracer, metrics registry, TSDB, and the default alert ruleset (the
// -tsdb -rules flag combination). Attaching everything here means the
// zero-perturbation test below covers the whole pipeline.
func newObservedRow(t *testing.T, cfg cluster.RowConfig, ctrl cluster.Controller) (*cluster.Row, *obs.Observer) {
	t.Helper()
	o := &obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	set, err := obs.ParseRules(obs.DefaultRules)
	if err != nil {
		t.Fatal(err)
	}
	o.DB = obs.NewTSDB(obs.TSDBConfig{Step: cfg.TelemetryInterval})
	o.Rules = obs.NewRules(o.DB, set, o.Tracer)
	eng := sim.New(cfg.Seed)
	eng.SetObserver(o)
	return cluster.MustRow(eng, cfg, ctrl), o
}

// runObservedRow runs an observed row on a flat arrival plan and returns
// the run metrics, the row (for in-flight inspection) and its observer.
func runObservedRow(t *testing.T, cfg cluster.RowConfig, ctrl cluster.Controller,
	busy float64, horizon time.Duration) (*cluster.Metrics, *cluster.Row, *obs.Observer) {
	t.Helper()
	row, o := newObservedRow(t, cfg, ctrl)
	return row.Run(flatPlan(cfg, busy, horizon)), row, o
}

// TestTraceReconcilesWithMetrics is the acceptance-criteria anchor: every
// aggregate the run reports must be re-derivable from the event stream and
// the metrics registry, for both backends and both entry points — Run's
// online arrivals and RunRequests' replayed trace.
func TestTraceReconcilesWithMetrics(t *testing.T) {
	for _, backend := range []string{"slot", "serve"} {
		for _, entry := range []string{"Run", "RunRequests"} {
			t.Run(backend+"/"+entry, func(t *testing.T) {
				cfg := testConfig()
				if backend == "serve" {
					cfg = serveConfig()
				}
				cfg.AddedFraction = 0.30 // oversubscribed so capping actually happens
				row, o := newObservedRow(t, cfg, polca.New(polca.DefaultConfig()))
				plan := flatPlan(cfg, 0.95, time.Hour)
				var m *cluster.Metrics
				if entry == "Run" {
					m = row.Run(plan)
				} else {
					reqs, err := cluster.GenerateRequests(cfg, plan, cfg.Seed)
					if err != nil {
						t.Fatal(err)
					}
					m = row.RunRequests(reqs, plan.Horizon())
				}
				checkTraceReconciles(t, cfg, m, row, o)
			})
		}
	}
}

// checkTraceReconciles checks every fact the row's record point counts
// (reconcileFacts), then the aggregates derived from them, and returns
// each fact's count.
func checkTraceReconciles(t *testing.T, cfg cluster.RowConfig, m *cluster.Metrics, row *cluster.Row, o *obs.Observer) map[string]int {
	t.Helper()
	tr := o.Tracer
	if m.LockCommands == 0 {
		t.Fatal("expected capping traffic in an oversubscribed hot run")
	}
	if totals(m.Arrived) == 0 {
		t.Fatal("no arrivals")
	}
	counts := reconcileFacts(t, m, o)
	// Every issued OOB command either landed (apply/release), failed, was
	// dropped as stale (superseded while in flight), or is still in flight.
	landed := tr.CountKind(obs.KindCapApply) + tr.CountKind(obs.KindCapRelease)
	if got := landed + m.FailedCommands + m.StaleOOBDrops + row.InFlightCommands(); got != m.LockCommands {
		t.Errorf("applies+releases+fails+stale+inflight = %d, want %d issues", got, m.LockCommands)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["sim_events_dispatched_total"] == 0 {
		t.Error("engine should count dispatched events")
	}
	hist, ok := snap.Histograms["row_util_seconds"]
	if !ok {
		t.Fatal("row_util_seconds histogram missing")
	}
	wantSec := float64(len(m.Util.Values)) * cfg.TelemetryInterval.Seconds()
	if hist.Total != wantSec {
		t.Errorf("util histogram total = %v s, want %v s", hist.Total, wantSec)
	}
	// The serving scheduler's aggregates reconcile with its events and
	// counters too.
	if cfg.Serve != nil {
		if got := tr.CountKind(obs.KindPreempt); got != m.Serve.Preemptions {
			t.Errorf("preempt events = %d, Serve.Preemptions = %d", got, m.Serve.Preemptions)
		}
		if got := tr.CountKind(obs.KindKVHighWater); got != m.Serve.KVHighWaterEvents {
			t.Errorf("kv.highwater events = %d, Serve.KVHighWaterEvents = %d", got, m.Serve.KVHighWaterEvents)
		}
		if got := snap.Counters["serve_batches_total"]; got != int64(m.Serve.Batches) {
			t.Errorf("serve_batches_total = %d, want %d", got, m.Serve.Batches)
		}
		if got := snap.Counters["serve_preemptions_total"]; got != int64(m.Serve.Preemptions) {
			t.Errorf("serve_preemptions_total = %d, want %d", got, m.Serve.Preemptions)
		}
	}
	// Events must be timestamp-ordered (the engine dispatches in order, and
	// emission happens inside handlers).
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("event %d out of order: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
	return counts
}

// TestObservedRunMatchesUnobserved locks the perturbation-free contract at
// the row level: attaching a tracer and registry must not change a single
// simulated aggregate.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := testConfig()
	cfg.AddedFraction = 0.30
	plain := runRow(t, cfg, polca.New(polca.DefaultConfig()), flatPlan(cfg, 0.95, time.Hour))
	observed, _, _ := runObservedRow(t, cfg, polca.New(polca.DefaultConfig()), 0.95, time.Hour)

	if plain.LockCommands != observed.LockCommands ||
		plain.FailedCommands != observed.FailedCommands ||
		plain.BrakeEvents != observed.BrakeEvents ||
		plain.MaxQueueLen != observed.MaxQueueLen {
		t.Fatalf("control aggregates diverged: %+v vs %+v", plain, observed)
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		if plain.Arrived[p] != observed.Arrived[p] ||
			plain.Completed[p] != observed.Completed[p] ||
			plain.Dropped[p] != observed.Dropped[p] {
			t.Fatalf("request aggregates diverged for %v", p)
		}
		if len(plain.LatencySec[p]) != len(observed.LatencySec[p]) {
			t.Fatalf("latency sample counts diverged for %v", p)
		}
		for i := range plain.LatencySec[p] {
			if plain.LatencySec[p][i] != observed.LatencySec[p][i] {
				t.Fatalf("latency sample %d diverged for %v", i, p)
			}
		}
	}
	if len(plain.Util.Values) != len(observed.Util.Values) {
		t.Fatal("utilization series lengths diverged")
	}
	for i := range plain.Util.Values {
		if plain.Util.Values[i] != observed.Util.Values[i] {
			t.Fatalf("utilization sample %d diverged", i)
		}
	}
}

// TestTraceReconcilesUnderFaults runs the reconciliation under the make
// chaos (slot) and make chaos-serve settings, with their fault windows
// moved inside a two-hour run, so the facts that only faults produce are
// checked too. Queue-full sheds need full queues, so the serve case runs twice
// the load on one-request queues and four-sequence batches, with a
// circuit-breaker threshold of two sheds; across the two cases every fact
// occurs at least once.
func TestTraceReconcilesUnderFaults(t *testing.T) {
	slot := hardenedConfig(t, "tdrop=0.05,tspike=0.02:0.5,tstuck=50m+5m,crash=30m+20,"+
		"oobburst=55m+30m,kill=2@40m+10m,slow=2:1.5,drain=2@80m+5m")
	srv := serveFTConfig(t, "tdrop=0.05,crash=30m+20,oobburst=55m+30m,kill=4@40m+10m,drain=2@80m+5m")
	srv.Serve = &serve.Config{MaxBatchSize: 4, QueueCap: 1}
	srv.ServeRetryBackoff = 4 * time.Second
	srv.ServeCircuitSheds = 2
	seen := map[string]int{}
	for _, c := range []struct {
		name string
		cfg  cluster.RowConfig
		busy float64
	}{{"slot", slot, 0.95}, {"serve", srv, 2}} {
		t.Run(c.name, func(t *testing.T) {
			ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
			m, row, o := runObservedRow(t, c.cfg, ctrl, c.busy, 2*time.Hour)
			for fact, n := range checkTraceReconciles(t, c.cfg, m, row, o) {
				seen[fact] += n
			}
		})
	}
	for fact, n := range seen {
		if n == 0 {
			t.Errorf("%s never occurred in either case", fact)
		}
	}
}

// reconcileFacts checks, for every fact the row's record point counts,
// that its events (split by reason where one kind feeds two fields), its
// Metrics field and its registry counter (where one exists) agree, and
// that completion events carry the recorded latencies. It returns each
// fact's count.
func reconcileFacts(t *testing.T, m *cluster.Metrics, o *obs.Observer) map[string]int {
	t.Helper()
	events := map[string]int{}
	var latency [2][]float64
	for _, ev := range o.Tracer.Events() {
		kind := ev.Kind.String()
		events[kind]++
		switch {
		case ev.Reason == "retry-exhausted", ev.Kind == obs.KindDrain && ev.Reason == "maintenance":
			events[kind+"/"+ev.Reason]++
		case ev.Kind == obs.KindComplete:
			latency[ev.Pool] = append(latency[ev.Pool], ev.Value)
		}
	}
	snap := o.Metrics.Snapshot()
	pools := func(family string) int64 {
		return snap.Counters[family+`{priority="low"}`] + snap.Counters[family+`{priority="high"}`]
	}
	const none = -1 // the fact has no registry counter
	facts := []struct {
		fact    string
		events  int
		metrics int
		counter int64
	}{
		{"req.arrive", events["req.arrive"], totals(m.Arrived), pools("row_requests_arrived_total")},
		{"req.complete", events["req.complete"], totals(m.Completed), pools("row_requests_completed_total")},
		{"req.drop", events["req.drop"], totals(m.Dropped), pools("row_requests_dropped_total")},
		{"req.drop/retry-exhausted", events["req.drop/retry-exhausted"], m.ServeRetryExhausted, none},
		{"brake.trigger", events["brake.trigger"], m.BrakeEvents, snap.Counters["row_brake_events_total"]},
		{"oob.issue", events["oob.issue"], m.LockCommands, snap.Counters["row_oob_commands_total"]},
		{"oob.fail", events["oob.fail"] - events["oob.fail/retry-exhausted"], m.FailedCommands,
			snap.Counters["row_oob_failures_total"]},
		{"oob.fail/retry-exhausted", events["oob.fail/retry-exhausted"], m.OOBRetriesExhausted, none},
		{"oob.stale", events["oob.stale"], m.StaleOOBDrops, none},
		{"watchdog.engage", events["watchdog.engage"], m.WatchdogEngagements, none},
		{"node.death", events["node.death"], m.NodeDeaths, none},
		{"req.retry", events["req.retry"], m.ServeRetries, none},
		{"circuit.open", events["circuit.open"], m.CircuitOpens, none},
		{"replica.drain/maintenance", events["replica.drain/maintenance"], m.NodeDrains, none},
	}
	counts := map[string]int{}
	for _, f := range facts {
		if f.events != f.metrics {
			t.Errorf("%s events = %d, Metrics = %d", f.fact, f.events, f.metrics)
		}
		if f.counter != none && f.counter != int64(f.metrics) {
			t.Errorf("%s registry counter = %d, Metrics = %d", f.fact, f.counter, f.metrics)
		}
		counts[f.fact] = f.metrics
	}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		if !reflect.DeepEqual(latency[p], m.LatencySec[p]) {
			t.Errorf("%v-priority completion latencies differ from LatencySec", p)
		}
	}
	return counts
}

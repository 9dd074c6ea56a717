package cluster_test

import (
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
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

func checkTraceReconciles(t *testing.T, cfg cluster.RowConfig, m *cluster.Metrics, row *cluster.Row, o *obs.Observer) {
	t.Helper()
	tr := o.Tracer
	if tr.CountKind(obs.KindOOBIssue) == 0 {
		t.Fatal("expected capping traffic in an oversubscribed hot run")
	}
	// OOB pipeline: issues == LockCommands, fails == FailedCommands, and
	// every issue either landed (apply/release), failed, was dropped as
	// stale (superseded while in flight), or is still in flight.
	if got := tr.CountKind(obs.KindOOBIssue); got != m.LockCommands {
		t.Errorf("oob.issue events = %d, LockCommands = %d", got, m.LockCommands)
	}
	if got := tr.CountKind(obs.KindOOBFail); got != m.FailedCommands {
		t.Errorf("oob.fail events = %d, FailedCommands = %d", got, m.FailedCommands)
	}
	if got := tr.CountKind(obs.KindOOBStale); got != m.StaleOOBDrops {
		t.Errorf("oob.stale events = %d, StaleOOBDrops = %d", got, m.StaleOOBDrops)
	}
	landed := tr.CountKind(obs.KindCapApply) + tr.CountKind(obs.KindCapRelease)
	if got := landed + m.FailedCommands + m.StaleOOBDrops + row.InFlightCommands(); got != m.LockCommands {
		t.Errorf("applies+releases+fails+stale+inflight = %d, want %d issues", got, m.LockCommands)
	}
	// Request lifecycle: each outcome's event count and registry counter
	// must both equal the Metrics count.
	snap := o.Metrics.Snapshot()
	for _, c := range []struct {
		kind   obs.Kind
		family string
		counts map[workload.Priority]int
	}{
		{obs.KindArrive, "row_requests_arrived_total", m.Arrived},
		{obs.KindComplete, "row_requests_completed_total", m.Completed},
		{obs.KindDrop, "row_requests_dropped_total", m.Dropped},
	} {
		want := c.counts[workload.Low] + c.counts[workload.High]
		if got := tr.CountKind(c.kind); got != want {
			t.Errorf("%s events = %d, Metrics = %d", c.kind, got, want)
		}
		ctr := snap.Counters[c.family+`{priority="low"}`] + snap.Counters[c.family+`{priority="high"}`]
		if ctr != int64(want) {
			t.Errorf("%s = %d, Metrics = %d", c.family, ctr, want)
		}
	}
	if m.Arrived[workload.Low]+m.Arrived[workload.High] == 0 {
		t.Fatal("no arrivals")
	}
	// Brake engagements.
	if got := tr.CountKind(obs.KindBrakeTrigger); got != m.BrakeEvents {
		t.Errorf("brake.trigger events = %d, BrakeEvents = %d", got, m.BrakeEvents)
	}
	if got := snap.Counters["row_oob_commands_total"]; got != int64(m.LockCommands) {
		t.Errorf("row_oob_commands_total = %d, want %d", got, m.LockCommands)
	}
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
		if got := tr.CountKind(obs.KindBatchForm); got != m.Serve.Batches {
			t.Errorf("batch.form events = %d, Serve.Batches = %d", got, m.Serve.Batches)
		}
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

package experiments

import (
	"testing"
	"time"

	"polca/internal/obs"
	"polca/internal/polca"
)

// TestObsDoesNotPerturbResults locks the tentpole contract at the
// experiment level: attaching a full observer (tracer + metrics + spans +
// progress) to a sweep must leave the rendered output byte-identical to an
// uninstrumented cold-cache run.
func TestObsDoesNotPerturbResults(t *testing.T) {
	for _, id := range []string{"fig13", "fig17"} {
		resetEvalCache()
		plain, err := Run(id, QuickOptions())
		if err != nil {
			t.Fatalf("%s plain: %v", id, err)
		}

		resetEvalCache()
		oo := QuickOptions()
		oo.Obs = &obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry(), Spans: obs.NewSpanTracer()}
		oo.Progress = obs.NewProgress(0)
		observed, err := Run(id, oo)
		if err != nil {
			t.Fatalf("%s observed: %v", id, err)
		}
		if plain.Text != observed.Text {
			t.Errorf("%s: output differs with observability enabled\n--- plain ---\n%s\n--- observed ---\n%s",
				id, plain.Text, observed.Text)
		}

		// The instrumentation itself must have fired: grid events, sweep
		// counters, progress accounting, and engine metrics.
		starts := oo.Obs.Tracer.CountKind(obs.KindGridStart)
		dones := oo.Obs.Tracer.CountKind(obs.KindGridDone)
		if starts == 0 || starts != dones {
			t.Errorf("%s: grid events start=%d done=%d", id, starts, dones)
		}
		snap := oo.Obs.Metrics.Snapshot()
		if snap.Counters["sweep_points_total"] != int64(dones) {
			t.Errorf("%s: sweep_points_total = %d, want %d", id, snap.Counters["sweep_points_total"], dones)
		}
		if snap.Counters["sim_events_dispatched_total"] == 0 {
			t.Errorf("%s: engine metrics did not flow through MetricsOnly observer", id)
		}
		ps := oo.Progress.Snapshot()
		if ps.Done != dones || ps.Total < ps.Done || len(ps.InFlight) != 0 {
			t.Errorf("%s: progress snapshot %+v inconsistent with %d grid points", id, ps, dones)
		}
	}
}

// TestSweepCacheHitsCounted re-runs a sweep warm and checks the cache-hit
// counter and the cached flag in progress accounting, then that specs
// differing only in how they state a default share one simulation.
func TestSweepCacheHitsCounted(t *testing.T) {
	resetEvalCache()
	o := QuickOptions().normalize()
	spec := rowSpec{policy: "nocap", added: 0, intensity: 1, days: 1}
	oObs := &obs.Observer{Metrics: obs.NewRegistry()}
	o.Obs = oObs
	o.Progress = obs.NewProgress(0)
	if _, err := simulateRows(o, []rowSpec{spec, spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := simulateRows(o, []rowSpec{spec}); err != nil {
		t.Fatal(err)
	}
	snap := oObs.Metrics.Snapshot()
	if snap.Counters["sweep_points_total"] != 3 {
		t.Fatalf("sweep_points_total = %d, want 3", snap.Counters["sweep_points_total"])
	}
	// Of the three requests for one spec, exactly one paid for a simulation.
	if snap.Counters["sweep_cache_hits_total"] != 2 {
		t.Fatalf("sweep_cache_hits_total = %d, want 2", snap.Counters["sweep_cache_hits_total"])
	}
	ps := o.Progress.Snapshot()
	if ps.Total != 3 || ps.Done != 3 || ps.Cached != 2 {
		t.Fatalf("progress snapshot %+v, want total=3 done=3 cached=2", ps)
	}

	// A default left zero and the same default spelled out are one
	// simulation; a real difference is two. Each pair sits at its own
	// oversubscription, so no pair can hit another's cache entry.
	def := polca.DefaultConfig()
	t2 := def
	t2.T2 = 0.85
	for _, c := range []struct {
		name string
		a, b rowSpec
		sims int64
	}{
		{"zero pc, DefaultConfig",
			rowSpec{policy: "polca", added: 0.1, intensity: 1, days: 1},
			rowSpec{policy: "polca", pc: def, added: 0.1, intensity: 1, days: 1}, 1},
		{"lpFrac 0, 0.5",
			rowSpec{policy: "polca", added: 0.2, intensity: 1, days: 1},
			rowSpec{policy: "polca", added: 0.2, intensity: 1, lpFrac: 0.5, days: 1}, 1},
		{"oobLatency 0, 40s",
			rowSpec{policy: "polca", added: 0.3, intensity: 1, days: 1},
			rowSpec{policy: "polca", added: 0.3, intensity: 1, days: 1, oobLatency: 40 * time.Second}, 1},
		{"DefaultConfig, T2 0.85",
			rowSpec{policy: "polca", pc: def, added: 0.4, intensity: 1, days: 1},
			rowSpec{policy: "polca", pc: t2, added: 0.4, intensity: 1, days: 1}, 2},
	} {
		reg := obs.NewRegistry()
		o.Obs = &obs.Observer{Metrics: reg}
		if _, err := simulateRows(o, []rowSpec{c.a, c.b}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if sims := snap.Counters["sweep_points_total"] - snap.Counters["sweep_cache_hits_total"]; sims != c.sims {
			t.Errorf("%s: %d simulations, want %d", c.name, sims, c.sims)
		}
	}
}

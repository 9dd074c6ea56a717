package polca_test

import (
	"testing"

	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/workload"
)

// transitions extracts (reason) in order from the traced threshold events.
func reasons(tr *obs.Tracer) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindThreshold {
			out = append(out, ev.Reason)
		}
	}
	return out
}

func TestPolicyEmitsThresholdEvents(t *testing.T) {
	act := newFake()
	act.obs = &obs.Observer{Tracer: obs.NewTracer()}
	p := polca.New(polca.DefaultConfig())

	// Climb through T1 and T2, hold hot so the HP action arms and fires,
	// then fall back below every release point.
	tick(p, act, 0.70, 0.82, 0.90, 0.90, 0.90, 0.70)

	got := reasons(act.obs.Tracer)
	want := []string{
		"t1.engage",     // 0.82
		"t2.lp.engage",  // 0.90
		"t2.hp.engage",  // third hot tick (armed on the second)
		"t2.lp.release", // 0.70
		"t2.hp.release",
		"t1.release",
	}
	if len(got) != len(want) {
		t.Fatalf("threshold events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	for _, ev := range act.obs.Tracer.Events() {
		if ev.Label == "" || ev.Value == 0 {
			t.Fatalf("threshold event missing label or utilization: %+v", ev)
		}
	}
}

func TestPolicyEmitsNothingWhenDisabled(t *testing.T) {
	// A nil observer must not panic anywhere in the decision path.
	act := newFake()
	p := polca.New(polca.DefaultConfig())
	tick(p, act, 0.70, 0.90, 0.90, 0.90, 0.70)
	if got := act.locks[workload.Low]; got != 0 {
		t.Fatalf("low pool lock = %v, want released", got)
	}
}

func TestSingleThresholdEmitsEngageRelease(t *testing.T) {
	act := newFake()
	act.obs = &obs.Observer{Tracer: obs.NewTracer()}
	s := polca.NewSingleThresholdAll()
	tick(s, act, 0.90, 0.90, 0.70)
	got := reasons(act.obs.Tracer)
	if len(got) != 2 || got[0] != "engage" || got[1] != "release" {
		t.Fatalf("events = %v, want [engage release]", got)
	}
}

func TestLadderEmitsRungEvents(t *testing.T) {
	act := newFake()
	act.obs = &obs.Observer{Tracer: obs.NewTracer()}
	l, err := polca.NewLadder("two-step", []polca.Rung{
		{Trigger: 0.80, Margin: 0.05, LowMHz: 1275},
		{Name: "deep", Trigger: 0.89, Margin: 0.05, LowMHz: 1110, HighMHz: 1305, Delay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tick(l, act, 0.90, 0.90, 0.70)
	// Rungs trace in descending trigger order; the unnamed one traces bare
	// engage/release.
	got := reasons(act.obs.Tracer)
	want := []string{"engage", "deep.engage", "deep.release", "release"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	for _, ev := range act.obs.Tracer.Events() {
		if ev.Label != "two-step" || ev.Pool != obs.PoolNone || ev.MHz != 0 {
			t.Fatalf("rung event should carry the controller label and no pool or clock: %+v", ev)
		}
	}
}

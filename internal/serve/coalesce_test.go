package serve

import (
	"testing"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// coalesceScenario scripts one replica workload plus mid-flight
// perturbations; the equivalence test replays it with coalescing on and off
// and requires the two runs to be indistinguishable to every observer.
type coalesceScenario struct {
	name    string
	cfg     Config
	spec    gpu.Spec
	horizon time.Duration
	// script installs arrivals and perturbations on the engine before the
	// run starts. Arrivals enqueue through rep; perturbations hit the
	// device and rep directly (Replan, Fail, mid-run probes).
	script func(eng *sim.Engine, rep *Replica, dev *gpu.Device)
}

// retired is a value snapshot of a released sequence, captured at its
// lifecycle callback — *Seq itself is recycled after the callback returns.
type retired struct {
	id      int64
	at      sim.Time
	reason  string
	decoded int
	pre     int
	energyJ float64
	capSec  float64
	capJ    float64
	ttft    float64
}

// coalesceTrace is everything externally observable about one run.
type coalesceTrace struct {
	retired []retired
	first   []retired // OnFirstToken observations
	power   []float64 // PowerUntil's watts sampled on an off-phase cadence
	kvFrac  []float64 // KVFrac sampled alongside power
	stats   Stats
	seqs    []retired // sequences still held at the horizon (none if drained)
}

// runCoalesceScenario executes the scenario and records its full trace.
// With perStride set, an attached event tracer forces the per-stride path.
func runCoalesceScenario(t *testing.T, sc coalesceScenario, perStride bool) coalesceTrace {
	t.Helper()
	eng := sim.New(7)
	if perStride {
		eng.SetObserver(&obs.Observer{Tracer: obs.NewTracer()})
	}
	dev := gpu.NewDevice(sc.spec)
	rep, err := NewReplica(eng, sc.cfg, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.coalesce == perStride {
		t.Fatalf("replica coalesce = %v with perStride = %v", rep.coalesce, perStride)
	}
	var tr coalesceTrace
	snap := func(s *Seq, at sim.Time, reason string) retired {
		return retired{
			id: s.Req.ID, at: at, reason: reason,
			decoded: s.Decoded(), pre: s.Preempts(),
			energyJ: s.EnergyJ(), capSec: s.CapSlowdownSec(), capJ: s.CapDeltaJ(),
			ttft: s.TTFTSeconds(),
		}
	}
	rep.OnComplete = func(s *Seq, now sim.Time) { tr.retired = append(tr.retired, snap(s, now, "")) }
	rep.OnDrop = func(s *Seq, now sim.Time, reason string) { tr.retired = append(tr.retired, snap(s, now, reason)) }
	rep.OnFirstToken = func(s *Seq, now sim.Time) { tr.first = append(tr.first, snap(s, now, "")) }
	// 7 ms lands mid-iteration and mid-span almost always — the power and
	// KV reads must not disturb either path, and must agree exactly.
	eng.Every(7*time.Millisecond, func(now sim.Time) {
		w, _ := rep.PowerUntil(now)
		tr.power = append(tr.power, w)
		tr.kvFrac = append(tr.kvFrac, rep.KVFrac())
	})
	if sc.script != nil {
		sc.script(eng, rep, dev)
	}
	eng.RunUntil(sc.horizon)
	tr.stats = rep.Stats()
	rep.Sequences(func(s *Seq) { tr.seqs = append(tr.seqs, snap(s, eng.Now(), "held")) })
	return tr
}

// TestCoalescingMatchesPerStride is the tentpole's equivalence property:
// decode-span coalescing must reproduce the per-stride scheduler event for
// event — identical completion/drop instants and attributions, identical
// power and KV readings at arbitrary sample instants, identical counters —
// across cap replans, KV-pressure preemption, node death mid-decode, and
// queue-cap shedding.
func TestCoalescingMatchesPerStride(t *testing.T) {
	base := func() (Config, gpu.Spec) {
		return Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB()
	}
	enqueueN := func(rep *Replica, n, input, output int) {
		for i := 0; i < n; i++ {
			rep.Enqueue(0, workload.Request{ID: int64(i), Input: input, Output: output, Class: "chat"})
		}
	}

	scenarios := []coalesceScenario{
		{
			name:    "steady-decode",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				enqueueN(rep, 8, 400, 600)
			},
		},
		{
			name:    "staggered-arrivals-break-spans",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				// Arrivals at prime-ish offsets land inside spans and force
				// breaks at uncorrelated instants.
				for i := 0; i < 16; i++ {
					i := i
					at := time.Duration(i) * 1731 * time.Millisecond
					eng.At(at, func(now sim.Time) {
						rep.Enqueue(now, workload.Request{ID: int64(i), Input: 300 + 50*i, Output: 200 + 30*i, Class: "chat"})
					})
				}
			},
		},
		{
			name:    "cap-replans-mid-span",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				enqueueN(rep, 8, 400, 600)
				dev.LockClock(1100)
				eng.At(5*time.Second, func(now sim.Time) { dev.LockClock(900); rep.Replan(now) })
				eng.At(9*time.Second, func(now sim.Time) { dev.SetBrake(true); rep.Replan(now) })
				eng.At(14*time.Second, func(now sim.Time) { dev.SetBrake(false); rep.Replan(now) })
				eng.At(21*time.Second, func(now sim.Time) { dev.SetPowerCap(300); rep.Replan(now) })
				eng.At(33*time.Second, func(now sim.Time) { dev.LockClock(0); rep.Replan(now) })
			},
		},
		{
			name:    "kv-pressure-preempts",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				enqueueN(rep, 12, 600, 300)
			},
		},
		{
			name:    "node-death-mid-decode",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				enqueueN(rep, 8, 400, 600)
				eng.At(31*time.Second, func(now sim.Time) { rep.Fail(now) })
				eng.At(40*time.Second, func(now sim.Time) {
					for i := 0; i < 4; i++ {
						rep.Enqueue(now, workload.Request{ID: int64(100 + i), Input: 200, Output: 150, Class: "chat"})
					}
				})
			},
		},
		{
			name:    "queue-cap-sheds",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				// QueueCap (below) is small; the burst must shed identically.
				for i := 0; i < 30; i++ {
					i := i
					eng.At(time.Duration(i)*200*time.Millisecond, func(now sim.Time) {
						rep.Enqueue(now, workload.Request{ID: int64(i), Input: 500, Output: 400, Class: "chat"})
					})
				}
			},
		},
		{
			name:    "mid-run-introspection",
			horizon: 2 * time.Hour,
			script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
				enqueueN(rep, 8, 400, 600)
				// Stats and Sequences settle in-flight spans; doing so at odd
				// instants must not change the trajectory.
				eng.Every(1303*time.Millisecond, func(now sim.Time) {
					_ = rep.Stats()
					rep.Sequences(func(*Seq) {})
				})
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg, spec := base()
			switch sc.name {
			case "kv-pressure-preempts":
				cfg, spec = pressureConfig()
				cfg.DecodeStride = 8
			case "queue-cap-sheds":
				cfg.QueueCap = 4
			}
			sc.cfg, sc.spec = cfg, spec

			a := runCoalesceScenario(t, sc, false) // coalescing on
			b := runCoalesceScenario(t, sc, true)  // per-stride

			if a.stats != b.stats {
				t.Errorf("stats differ:\ncoalesced: %+v\nper-stride: %+v", a.stats, b.stats)
			}
			diffRetired := func(kind string, xs, ys []retired) {
				if len(xs) != len(ys) {
					t.Fatalf("%s count: coalesced %d, per-stride %d", kind, len(xs), len(ys))
				}
				for i := range xs {
					if xs[i] != ys[i] {
						t.Errorf("%s[%d] differs:\ncoalesced: %+v\nper-stride: %+v", kind, i, xs[i], ys[i])
					}
				}
			}
			diffRetired("retired", a.retired, b.retired)
			diffRetired("first-token", a.first, b.first)
			diffRetired("held", a.seqs, b.seqs)
			if len(a.power) != len(b.power) {
				t.Fatalf("power samples: %d vs %d", len(a.power), len(b.power))
			}
			for i := range a.power {
				if a.power[i] != b.power[i] {
					t.Fatalf("power sample %d differs: %v vs %v", i, a.power[i], b.power[i])
				}
				if a.kvFrac[i] != b.kvFrac[i] {
					t.Fatalf("KV sample %d differs: %v vs %v", i, a.kvFrac[i], b.kvFrac[i])
				}
			}
		})
	}
}

// TestCoalesceGateRespectsObservers pins when coalescing may engage: never
// while an iteration-granular observer (tracer or span sink) is attached.
func TestCoalesceGateRespectsObservers(t *testing.T) {
	cfg, spec := Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB()
	mk := func(eng *sim.Engine) *Replica {
		rep, err := NewReplica(eng, cfg, gpu.NewDevice(spec), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := mk(sim.New(1)); !rep.coalesce {
		t.Error("bare replica should coalesce")
	}
	for _, tc := range []struct {
		name string
		obs  *obs.Observer
	}{
		{"tracer", &obs.Observer{Tracer: obs.NewTracer()}},
		{"spans", &obs.Observer{Spans: obs.NewSpanTracer()}},
	} {
		eng := sim.New(1)
		eng.SetObserver(tc.obs)
		if rep := mk(eng); rep.coalesce {
			t.Errorf("replica with %s attached must not coalesce", tc.name)
		}
	}
}

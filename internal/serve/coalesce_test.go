package serve

import (
	"bytes"
	"testing"
	"time"

	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// coalesceScenario scripts one replica workload plus mid-flight
// perturbations; the equivalence checks replay it on the span planner and
// on the per-stride reference and require the two runs to be
// indistinguishable to every observer.
type coalesceScenario struct {
	name    string
	cfg     Config
	spec    gpu.Spec
	horizon time.Duration
	sample  time.Duration // PowerUntil/KVFrac sampling period
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
	events  []byte    // the event tracer's JSONL
	spans   []byte    // the span sink's JSONL
}

// runCoalesceScenario executes the scenario with an event tracer and a
// span sink attached and records its full trace. perStride selects the
// reference path, which runs every iteration as its own engine event.
func runCoalesceScenario(t *testing.T, sc coalesceScenario, perStride bool) coalesceTrace {
	t.Helper()
	eng := sim.New(7)
	o := &obs.Observer{Tracer: obs.NewTracer(), Spans: obs.NewSpanTracer()}
	eng.SetObserver(o)
	dev := gpu.NewDevice(sc.spec)
	rep, err := NewReplica(eng, sc.cfg, dev, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep.perStride = perStride
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
	// An off-phase cadence lands mid-iteration and mid-span almost always —
	// the power and KV reads must not disturb either path, and must agree
	// exactly.
	eng.Every(sc.sample, func(now sim.Time) {
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
	var events, spans bytes.Buffer
	if err := o.Tracer.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if err := o.Spans.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	tr.events, tr.spans = events.Bytes(), spans.Bytes()
	return tr
}

// requireSameTrace fails unless the span-planned run a and the per-stride
// run b recorded the same trace: completion/drop instants and
// attributions, power and KV readings, counters, and the event and span
// JSONL byte for byte.
func requireSameTrace(t *testing.T, a, b coalesceTrace) {
	t.Helper()
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
	diffJSONL := func(kind string, xs, ys []byte) {
		if bytes.Equal(xs, ys) {
			return
		}
		xl, yl := bytes.Split(xs, []byte("\n")), bytes.Split(ys, []byte("\n"))
		for i := 0; i < len(xl) && i < len(yl); i++ {
			if !bytes.Equal(xl[i], yl[i]) {
				t.Fatalf("%s JSONL line %d differs:\ncoalesced:  %s\nper-stride: %s", kind, i+1, xl[i], yl[i])
			}
		}
		t.Fatalf("%s JSONL: coalesced %d lines, per-stride %d", kind, len(xl), len(yl))
	}
	diffJSONL("event", a.events, b.events)
	diffJSONL("span", a.spans, b.spans)
}

// TestCoalescingMatchesPerStride is the decode-span planner's equivalence
// property: with an event tracer and a span sink attached, coalescing must
// reproduce the per-stride scheduler event for event — identical
// completion/drop instants and attributions, power and KV readings at
// arbitrary sample instants, counters, and event and span JSONL — across
// cap replans, KV-pressure preemption, node death mid-decode, and
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
			sc.sample = 7 * time.Millisecond

			a := runCoalesceScenario(t, sc, false)
			b := runCoalesceScenario(t, sc, true)
			if len(a.events) == 0 || len(a.spans) == 0 {
				t.Fatalf("traced %d event bytes and %d span bytes, want both", len(a.events), len(a.spans))
			}
			requireSameTrace(t, a, b)
		})
	}
}

// FuzzCoalescingMatchesPerStride runs a seeded random replica script on
// both decode paths, with an event tracer and a span sink attached, and
// requires identical traces (requireSameTrace). The script draws arrivals
// (zero-output requests included), clock-lock, brake and power-cap
// changes each followed by a replan, one node death, and Stats/Sequences
// probes, on a roomy or a KV-starved device. The horizon may cut requests
// mid-flight, so the held sequences are compared too.
func FuzzCoalescingMatchesPerStride(f *testing.F) {
	f.Add(int64(1), uint8(7), false) // a 10 ms sample lands on a segment end at 91.37 s
	f.Add(int64(7), uint8(14), true) // ten preemptions
	f.Add(int64(13), uint8(31), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, starved bool) {
		sc := scriptedScenario(seed, 1+int(n%32), starved)
		requireSameTrace(t, runCoalesceScenario(t, sc, false), runCoalesceScenario(t, sc, true))
	})
}

// scriptedScenario draws a replica script from seed: n arrivals and up to
// eight knob changes or probes in the first minute, one node death, a
// horizon between 20 s and 5 min (short ones cut requests mid-flight), and
// a sampling period of 5–50 ms.
func scriptedScenario(seed int64, n int, starved bool) coalesceScenario {
	rng := sim.New(seed).Rand("coalesce-script")
	cfg, spec := Config{Model: bloom(), DType: llm.FP16}, gpu.A100SXM80GB()
	if starved {
		cfg, spec = pressureConfig()
	}
	cfg.DecodeStride = 1 + rng.Intn(8)
	cfg.QueueCap = 2 + rng.Intn(32)
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(time.Minute))) }

	type step struct {
		at   time.Duration
		kind int // 0 arrival, 1 clock lock, 2 brake, 3 power cap, 4 probe, 5 node death
		arg  int
	}
	var steps []step
	for i := 0; i < n; i++ {
		steps = append(steps, step{at: at(), arg: i})
	}
	for i, k := 0, rng.Intn(9); i < k; i++ {
		steps = append(steps, step{at: at(), kind: 1 + rng.Intn(4), arg: rng.Intn(4)})
	}
	steps = append(steps, step{at: at(), kind: 5})
	inputs, outputs := make([]int, n), make([]int, n)
	for i := range inputs {
		inputs[i], outputs[i] = 1+rng.Intn(1200), rng.Intn(1500)
	}
	locks := [4]float64{0, 900, 1100, 1275}
	caps := [4]float64{250, 300, 350, spec.TDPWatts}

	return coalesceScenario{
		cfg: cfg, spec: spec,
		horizon: 20*time.Second + time.Duration(rng.Int63n(int64(280*time.Second))),
		sample:  time.Duration(5+rng.Intn(46)) * time.Millisecond,
		script: func(eng *sim.Engine, rep *Replica, dev *gpu.Device) {
			for _, st := range steps {
				st := st
				eng.At(st.at, func(now sim.Time) {
					switch st.kind {
					case 0:
						// Traced like the row's arrivals, so an event a
						// settling span emitted late would land out of order.
						eng.Observer().Trace().Emit(obs.Event{At: now, Kind: obs.KindArrive, Server: -1})
						rep.Enqueue(now, workload.Request{
							ID: int64(st.arg), Arrival: now, Class: "chat",
							Input: inputs[st.arg], Output: outputs[st.arg],
						})
					case 1:
						dev.LockClock(locks[st.arg])
						rep.Replan(now)
					case 2:
						dev.SetBrake(st.arg%2 == 0)
						rep.Replan(now)
					case 3:
						dev.SetPowerCap(caps[st.arg])
						rep.Replan(now)
					case 4:
						_ = rep.Stats()
						rep.Sequences(func(*Seq) {})
					case 5:
						rep.Fail(now)
					}
				})
			}
		},
	}
}

package cluster_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"polca/internal/cluster"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// randomCtrl is a fuzzing controller: it issues random (but valid) pool
// lock requests on every telemetry tick, exercising the OOB pipeline and
// mid-flight replanning far harder than any sane policy would.
type randomCtrl struct {
	rng *rand.Rand
}

func (c *randomCtrl) Name() string { return "random" }

func (c *randomCtrl) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	clocks := []float64{0, 1380, 1275, 1110, 990, 700}
	act.SetPoolLock(workload.Low, clocks[c.rng.Intn(len(clocks))])
	act.SetPoolLock(workload.High, clocks[c.rng.Intn(len(clocks))])
}

// erlangGap returns a unit-mean Erlang(k) gap sampler, the mean of k Exp(1)
// draws; k = 1 is Poisson.
func erlangGap(k int) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 {
		var sum float64
		for i := 0; i < k; i++ {
			sum += rng.ExpFloat64()
		}
		return sum / float64(k)
	}
}

// TestRowInvariantsUnderRandomConfigs drives randomized small rows with a
// chaotic controller and checks the invariants every run must satisfy:
//
//   - conservation: completed + queued-or-in-flight + dropped == arrived
//   - utilization stays within the physical envelope
//   - latencies are at least a service-time floor and finite
//   - no negative counters
func TestRowInvariantsUnderRandomConfigs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := cluster.Production()
		cfg.BaseServers = 2 + rng.Intn(6)
		cfg.AddedFraction = float64(rng.Intn(5)) / 10
		cfg.LowPriorityFraction = 0.25 + 0.5*rng.Float64()
		cfg.OOBFailureProb = 0.3 * rng.Float64()
		cfg.PowerIntensity = 0.95 + 0.1*rng.Float64()
		cfg.Seed = seed

		busy := 0.3 + 0.6*rng.Float64()
		shape := cfg.Shape()
		rate := busy * float64(cfg.Servers()) / shape.MeanServiceSec
		rates := make([]float64, 20)
		for i := range rates {
			rates[i] = rate * (0.5 + rng.Float64())
		}
		plan := trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: erlangGap(1 + rng.Intn(32))}

		eng := sim.New(seed)
		row := cluster.MustRow(eng, cfg, &randomCtrl{rng: rand.New(rand.NewSource(seed + 1))})
		m := row.Run(plan)

		arrived := m.Arrived[workload.Low] + m.Arrived[workload.High]
		completed := m.Completed[workload.Low] + m.Completed[workload.High]
		dropped := m.Dropped[workload.Low] + m.Dropped[workload.High]
		// The run drains after the horizon, so everything admitted should
		// complete; anything shed is counted.
		if completed+dropped != arrived {
			t.Logf("seed %d: conservation violated: %d completed + %d dropped != %d arrived",
				seed, completed, dropped, arrived)
			return false
		}
		// Physical power envelope: between all-idle (with slack for the
		// intensity factor scaling idle GPU power) and an absolute ceiling.
		floor := float64(cfg.Servers()) * cfg.IdleServerWatts() / cfg.ProvisionedWatts() * 0.9
		ceiling := float64(cfg.Servers()) * 7000 / cfg.ProvisionedWatts()
		for _, u := range m.Util.Values {
			if u < floor || u > ceiling {
				t.Logf("seed %d: utilization %v outside [%v, %v]", seed, u, floor, ceiling)
				return false
			}
		}
		// Latency sanity: positive, and bounded (buffer cap + brakes give a
		// generous ceiling of an hour for these tiny rows).
		for _, pri := range []workload.Priority{workload.Low, workload.High} {
			for _, l := range m.LatencySec[pri] {
				if l <= 0 || l > 3600 {
					t.Logf("seed %d: latency %v out of range", seed, l)
					return false
				}
			}
		}
		if m.BrakeEvents < 0 || m.LockCommands < 0 || m.FailedCommands < 0 || m.FailedCommands > m.LockCommands {
			t.Logf("seed %d: counter inconsistency %+v", seed, m)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestBusyConservation checks Little's-law-scale accounting: total busy
// time ≈ completed × mean service time.
func TestBusyConservation(t *testing.T) {
	cfg := cluster.Production()
	cfg.BaseServers = 8
	eng := sim.New(77)
	shape := cfg.Shape()
	rate := 0.5 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, 120)
	for i := range rates {
		rates[i] = rate
	}
	row := cluster.MustRow(eng, cfg, &recordingCtrl{})
	m := row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})

	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		if m.Completed[pri] == 0 {
			t.Fatalf("%v: no completions", pri)
		}
		meanService := m.BusySec[pri] / float64(m.Completed[pri])
		want := cfg.MeanServiceSeconds(pri)
		if meanService < 0.8*want || meanService > 1.2*want {
			t.Errorf("%v: realized mean service %.1fs vs modelled %.1fs", pri, meanService, want)
		}
	}
}

// TestLatencyIncludesQueueing verifies end-to-end latency is never below
// pure execution time and grows under load.
func TestLatencyIncludesQueueing(t *testing.T) {
	run := func(busy float64) float64 {
		cfg := cluster.Production()
		cfg.BaseServers = 6
		eng := sim.New(3)
		shape := cfg.Shape()
		rate := busy * float64(cfg.Servers()) / shape.MeanServiceSec
		rates := make([]float64, 60)
		for i := range rates {
			rates[i] = rate
		}
		row := cluster.MustRow(eng, cfg, &recordingCtrl{})
		m := row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})
		return stats.Percentile(m.LatencySec[workload.High], 95)
	}
	light := run(0.3)
	heavy := run(0.9)
	if heavy <= light {
		t.Errorf("p95 latency should grow with load: %.1f vs %.1f", light, heavy)
	}
}

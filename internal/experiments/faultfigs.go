package experiments

import (
	"fmt"
	"time"

	"polca/internal/faults"
	"polca/internal/workload"
)

func init() {
	register("figfault", "Fault injection: safety and degradation across policies", runFigFault)
}

// FigFaultRow is one (policy, fault intensity) outcome of the chaos sweep.
type FigFaultRow struct {
	Policy    string
	Intensity float64 // fault-scenario scale factor (0 = fault-free)

	// Safety: time the row's physical power spent above the brake
	// threshold, and the single worst excursion. The breaker's trip curve
	// cares about the excursion length; the brake + policy must bound it.
	BreachSeconds    float64
	MaxBreachSeconds float64
	Brakes           int

	// Degradation machinery engagement.
	Watchdog         int // row deadman engagements
	Retries          int // OOB re-issues after failures
	RetriesExhausted int // targets abandoned after the retry budget
	StaleDrops       int // superseded in-flight commands dropped
	NodeDeaths       int
	Injected         faults.Counts

	// Performance: p99 latency normalized to the same policy fault-free.
	NormP99 map[workload.Priority]float64
}

// faultScenario is the mixed chaos scenario at intensity 1, with windows
// placed as fractions of the horizon so the same scenario scales from a
// quick one-day run to a multi-week sweep: background telemetry dropout
// and spikes, a frozen sensor, a telemetry blackout, a controller crash,
// missed ticks, an OOB burst-failure window with inflated latency, a
// two-server kill window, and two stragglers.
func faultScenario(horizon time.Duration) faults.Spec {
	frac := func(f float64) time.Duration {
		return (time.Duration(float64(horizon) * f)).Round(time.Second)
	}
	return faults.Spec{
		DropProb:  0.05,
		SpikeProb: 0.02, SpikeMag: 0.5,
		Stuck:        []faults.Window{{Start: frac(0.25), Dur: frac(0.02)}},
		Blackout:     []faults.Window{{Start: frac(0.40), Dur: frac(0.01)}},
		Crashes:      []faults.Crash{{At: frac(0.30), Epochs: 20}},
		MissProb:     0.02,
		Burst:        []faults.Window{{Start: frac(0.55), Dur: frac(0.04)}},
		LatencyScale: 1.5,
		Kills:        []faults.Kill{{Servers: 2, Window: faults.Window{Start: frac(0.70), Dur: frac(0.04)}}},
		Stragglers:   2, StragglerFactor: 1.5,
	}
}

func runFigFault(o Options) (Result, error) {
	horizon := horizonFromDays(o.SweepDays)
	scenario := faultScenario(horizon)
	if o.Faults != "" {
		custom, err := faults.Parse(o.Faults)
		if err != nil {
			return Result{}, err
		}
		scenario = custom
	}
	intensities := []float64{0, 0.5, 1}
	if o.Quick {
		intensities = []float64{0, 1}
	}

	// Three policies: the uncontrolled baseline, the paper's POLCA as-is,
	// and POLCA under the hardened profile (telemetry guard, row watchdog,
	// bounded OOB retries with backoff, stale-command drops).
	policies := []rowSpec{{policy: "nocap"}, {policy: "polca"}, {policy: "polca", hardened: true}}

	specs := make([]rowSpec, 0, len(policies)*len(intensities))
	for _, p := range policies {
		for _, fi := range intensities {
			s := p
			s.added, s.intensity, s.days = 0.30, 1, o.SweepDays
			// Canonical DSL form so the cache key and provenance are stable;
			// Scale(0) collapses to the zero spec and the empty string.
			s.faults = scenario.Scale(fi).String()
			specs = append(specs, s)
		}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}

	var rows []FigFaultRow
	for pi, p := range policies {
		var base latencies
		for ii, fi := range intensities {
			m := ms[pi*len(intensities)+ii]
			lat := sortedLatencies(m)
			if fi == 0 {
				base = lat
			}
			row := FigFaultRow{
				Policy:           p.name(),
				Intensity:        fi,
				BreachSeconds:    m.Util.TimeAbove(m.Config.BrakeUtil).Seconds(),
				MaxBreachSeconds: m.Util.LongestRunAbove(m.Config.BrakeUtil).Seconds(),
				Brakes:           m.BrakeEvents,
				Watchdog:         m.WatchdogEngagements,
				Retries:          m.OOBRetries,
				RetriesExhausted: m.OOBRetriesExhausted,
				StaleDrops:       m.StaleOOBDrops,
				NodeDeaths:       m.NodeDeaths,
				Injected:         m.Faults,
				NormP99:          lat.norm(base, 99),
			}
			rows = append(rows, row)
		}
	}

	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Policy, fmt.Sprintf("%.1f", r.Intensity),
			fmt.Sprintf("%.0f", r.BreachSeconds), fmt.Sprintf("%.0f", r.MaxBreachSeconds),
			fmt.Sprintf("%d", r.Brakes), fmt.Sprintf("%d", r.Watchdog),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.NodeDeaths),
			f3(r.NormP99[workload.Low]), f3(r.NormP99[workload.High]),
		})
	}
	text := table([]string{"Policy", "Faults", "Breach(s)", "MaxBreach(s)", "Brakes", "Watchdog", "Retries", "Deaths", "LP p99", "HP p99"}, cells)
	text += fmt.Sprintf("\nScenario at intensity 1: %s\n", scenario.String())
	text += "Breach(s): total time the row's physical power exceeded the brake threshold.\n" +
		"Latencies are normalized to the same policy with faults disabled.\n"
	return Result{Text: text, Data: rows}, nil
}

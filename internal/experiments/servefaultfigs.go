package experiments

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/workload"
)

func init() {
	register("figservefault", "Serve-mode fault tolerance: goodput and SLO attainment under chaos", runFigServeFault)
}

// FigServeFaultRow is one (scenario, policy) outcome of the serve-mode
// chaos sweep.
type FigServeFaultRow struct {
	Scenario string
	Policy   string

	// Goodput: requests that completed, and per-class SLO attainment for
	// the critical interactive class (chat), both as fractions of first
	// admissions.
	Arrived     int
	Completed   int
	GoodputFrac float64
	ChatSLOFrac float64

	// Fault-tolerance machinery engagement.
	Retries        int // failover requeues
	RetryExhausted int // requests dropped after the retry budget
	ClassSheds     int // SLO-class-aware admission sheds
	CircuitOpens   int
	NodeDrains     int
	NodeDeaths     int
	Watchdog       int

	// Safety: the single worst excursion above the brake threshold, and
	// the bound the brake contract promises (BrakeLatency + BrakeHold +
	// two telemetry ticks). SafetyOK reports MaxBreach <= Bound.
	MaxBreachSeconds float64
	BoundSeconds     float64
	SafetyOK         bool
	Brakes           int
}

// serveFaultScenarios are the chaos scenarios the serve-mode sweep runs,
// with windows placed as fractions of the horizon. Each isolates one
// failure family so the table attributes degradation to its cause:
// node-death kills servers (and drains two more for maintenance),
// oob-burst makes actuation fail and lag, crash freezes the controller,
// and blackout silences telemetry row-wide.
func serveFaultScenarios(horizon time.Duration) []struct {
	Name string
	Spec faults.Spec
} {
	frac := func(f float64) time.Duration {
		return (time.Duration(float64(horizon) * f)).Round(time.Second)
	}
	return []struct {
		Name string
		Spec faults.Spec
	}{
		{"node-death", faults.Spec{
			Kills:  []faults.Kill{{Servers: 4, Window: faults.Window{Start: frac(0.30), Dur: frac(0.10)}}},
			Drains: []faults.Kill{{Servers: 2, Window: faults.Window{Start: frac(0.60), Dur: frac(0.05)}}},
		}},
		{"oob-burst", faults.Spec{
			Burst:        []faults.Window{{Start: frac(0.40), Dur: frac(0.10)}},
			LatencyScale: 2,
		}},
		{"crash", faults.Spec{
			Crashes:  []faults.Crash{{At: frac(0.35), Epochs: 40}},
			MissProb: 0.02,
		}},
		{"blackout", faults.Spec{
			DropProb: 0.05,
			Blackout: []faults.Window{{Start: frac(0.45), Dur: frac(0.03)}},
		}},
	}
}

func runFigServeFault(o Options) (Result, error) {
	horizon := horizonFromDays(o.SweepDays)
	scenarios := serveFaultScenarios(horizon)
	if o.Quick {
		scenarios = scenarios[:2] // node-death + oob-burst
	}

	// Three policies on the serving backend: the uncontrolled baseline,
	// the paper's POLCA with the drop-only serving engine, and POLCA under
	// the hardened profile: the controller hardening plus serve-mode
	// failover, class shedding, circuit breaking, and watchdog drain.
	policies := []rowSpec{{policy: "nocap"}, {policy: "polca"}, {policy: "polca", hardened: true}}

	specs := make([]rowSpec, 0, len(policies)*len(scenarios))
	for _, p := range policies {
		for _, sc := range scenarios {
			s := p
			s.added, s.intensity, s.days, s.serveRouter = 0.30, 1, o.SweepDays, "least-queue"
			s.faults = sc.Spec.String()
			specs = append(specs, s)
		}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}

	var rows []FigServeFaultRow
	for pi, p := range policies {
		for si, sc := range scenarios {
			m := ms[pi*len(scenarios)+si]
			rows = append(rows, serveFaultRow(sc.Name, p.name(), m))
		}
	}

	var cells [][]string
	for _, r := range rows {
		safety := "ok"
		if !r.SafetyOK {
			safety = "VIOLATED"
		}
		cells = append(cells, []string{
			r.Scenario, r.Policy,
			pct(r.GoodputFrac), pct(r.ChatSLOFrac),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.RetryExhausted),
			fmt.Sprintf("%d", r.ClassSheds), fmt.Sprintf("%d", r.NodeDrains),
			fmt.Sprintf("%.0f/%.0f", r.MaxBreachSeconds, r.BoundSeconds), safety,
			fmt.Sprintf("%d", r.Brakes), fmt.Sprintf("%d", r.NodeDeaths),
		})
	}
	text := table([]string{"Scenario", "Policy", "Goodput", "Chat SLO", "Retries", "Exhaust", "Sheds", "Drains", "Breach/Bound(s)", "Safety", "Brakes", "Deaths"}, cells)
	text += "\nGoodput: completed requests / first admissions (retries are not double-counted).\n" +
		"Chat SLO: critical-class requests whose first token met the TTFT SLO.\n" +
		"Safety bound: BrakeLatency + BrakeHold + two telemetry ticks on the worst breach.\n"
	return Result{Text: text, Data: rows}, nil
}

// serveFaultRow distills one serve-mode chaos run into a table row.
func serveFaultRow(scenario, policy string, m *cluster.Metrics) FigServeFaultRow {
	arrived := 0
	for _, v := range m.ClassArrived {
		arrived += v
	}
	completed := m.Completed[workload.Low] + m.Completed[workload.High]
	goodput := 0.0
	if arrived > 0 {
		goodput = float64(completed) / float64(arrived)
	}
	bound := m.Config.BrakeSafetyBound().Seconds()
	breach := m.Util.LongestRunAbove(m.Config.BrakeUtil).Seconds()
	return FigServeFaultRow{
		Scenario: scenario, Policy: policy,
		Arrived: arrived, Completed: completed,
		GoodputFrac: goodput, ChatSLOFrac: m.ClassAttainment("chat"),
		Retries: m.ServeRetries, RetryExhausted: m.ServeRetryExhausted,
		ClassSheds: m.ClassSheds(), CircuitOpens: m.CircuitOpens,
		NodeDrains: m.NodeDrains, NodeDeaths: m.NodeDeaths,
		Watchdog:         m.WatchdogEngagements,
		MaxBreachSeconds: breach, BoundSeconds: bound,
		SafetyOK: breach <= bound, Brakes: m.BrakeEvents,
	}
}

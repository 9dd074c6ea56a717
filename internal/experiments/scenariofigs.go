package experiments

import (
	"fmt"
	"strings"
	"time"

	"polca/internal/cluster"
	"polca/internal/scenario"
	"polca/internal/workload"
)

func init() {
	register("figscenario", "Extension: workload scenario library under No-cap vs POLCA (serving backend)", runFigScenario)
}

// FigScenarioRow is one scenario x policy outcome on the serving backend.
type FigScenarioRow struct {
	Scenario  string
	Policy    string
	Requests  int
	MeanUtil  float64
	PeakUtil  float64
	MaxRise2s float64
	Brakes    int
	Caps      int // OOB cap commands issued
	TTFTp99   float64
	// Attain is the aggregate SLO attainment (first token within the TTFT
	// SLO, over first admissions); WorstClass/WorstAttain single out the
	// cohort that suffers most, and Jain is the fairness index of the
	// per-class attainment fractions (1 = every class equally served).
	Attain      float64
	WorstClass  string
	WorstAttain float64
	Jain        float64
}

// FigScenarioData carries the sweep.
type FigScenarioData struct {
	Rows []FigScenarioRow
}

// runFigScenario sweeps the committed scenario library (or the single
// scenario named by Options.Scenario) under No-cap and POLCA on the
// request-level serving backend: does the power story the paper tells on
// the Table 6 mix survive diverse traffic — bursty multi-turn chat, launch
// ramps, press spikes — and who pays for the caps when it is enforced?
func runFigScenario(o Options) (Result, error) {
	names := scenario.Names()
	if o.Quick {
		names = []string{"chatbot", "launch-day"}
	}
	if o.Scenario != "" {
		names = []string{o.Scenario}
	}

	var specs []rowSpec
	for _, n := range names {
		for _, pol := range []string{"nocap", "polca"} {
			specs = append(specs, rowSpec{
				policy: pol, added: 0.30, intensity: 1, days: o.SweepDays,
				serveRouter: "session-affinity", scenario: n,
			})
		}
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}

	data := FigScenarioData{}
	for i, s := range specs {
		m := ms[i]
		row := FigScenarioRow{
			Scenario: s.scenario, Policy: s.name(),
			Requests:  m.Completed[workload.Low] + m.Completed[workload.High],
			MeanUtil:  m.Util.Mean(),
			PeakUtil:  m.Util.Peak(),
			MaxRise2s: m.Util.MaxRise(2 * time.Second),
			Brakes:    m.BrakeEvents,
			Caps:      m.LockCommands,
			TTFTp99:   aggTTFTp99(m),
		}
		row.Attain, row.WorstClass, row.WorstAttain = classAttainment(m)
		row.Jain = m.AttainmentJain()
		data.Rows = append(data.Rows, row)
	}

	var b strings.Builder
	b.WriteString("Scenario library on the serving backend (+30% servers, session-affinity router):\n")
	var cells [][]string
	for _, r := range data.Rows {
		cells = append(cells, []string{
			r.Scenario, r.Policy, fmt.Sprintf("%d", r.Requests),
			pct(r.MeanUtil), pct(r.PeakUtil), pct(r.MaxRise2s),
			fmt.Sprintf("%d", r.Brakes), fmt.Sprintf("%d", r.Caps),
			f2(r.TTFTp99), pct(r.Attain),
			fmt.Sprintf("%s %s", r.WorstClass, pct(r.WorstAttain)),
			f3(r.Jain),
		})
	}
	b.WriteString(table([]string{
		"Scenario", "Policy", "Requests", "mean util", "peak", "rise(2s)",
		"Brakes", "Caps", "TTFT p99 (s)", "SLO attain", "worst class", "Jain",
	}, cells))
	b.WriteString("\nSLO attainment = first token within the TTFT SLO over first admissions;\nJain = fairness index of per-class attainment (1.0 = classes suffer equally).\n")
	return Result{Text: b.String(), Data: data}, nil
}

// classAttainment folds the per-class SLO counters into the aggregate
// attainment over every class's first admissions and the worst-served
// class with its attainment.
func classAttainment(m *cluster.Metrics) (agg float64, worst string, worstAttain float64) {
	var okSum, arrSum int
	worstAttain = 1
	for _, name := range workload.Names(m.Config.Classes) {
		arrived := m.ClassArrived[name]
		if arrived == 0 {
			continue
		}
		okSum += m.ClassSLOOK[name]
		arrSum += arrived
		if frac := m.ClassAttainment(name); worst == "" || frac < worstAttain {
			worst, worstAttain = name, frac
		}
	}
	if arrSum > 0 {
		agg = float64(okSum) / float64(arrSum)
	}
	return agg, worst, worstAttain
}

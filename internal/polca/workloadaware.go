package polca

import (
	"fmt"
	"sort"

	"polca/internal/cluster"
	"polca/internal/llm"
	"polca/internal/sim"
	"polca/internal/workload"
)

// FrequencyProfile records one capping frequency's effect on one pool's
// workload mix: the execution slowdown it causes and the busy-power it
// reclaims. Profiles are what §6.7's workload-aware extension adds on top
// of the fixed Table 5 frequencies.
type FrequencyProfile struct {
	ClockMHz  float64
	PerfLoss  float64 // mean execution slowdown (fraction)
	PowerSave float64 // mean busy GPU power reduction (fraction)
}

// FrequencyPlanner precomputes frequency profiles per priority from the
// workload classes (through cluster.MixCost, the cost model the slot row
// runs on) and answers "what is the deepest cap whose slowdown fits this
// budget?".
type FrequencyPlanner struct {
	profiles map[workload.Priority][]FrequencyProfile // sorted by clock desc
}

// NewFrequencyPlanner profiles the candidate clocks for both priorities.
// Candidates are sorted descending; the device's clock range clips them.
func NewFrequencyPlanner(model llm.Model, dt llm.DType, classes []workload.Class, candidatesMHz []float64) (*FrequencyPlanner, error) {
	if len(candidatesMHz) == 0 {
		return nil, fmt.Errorf("polca: no candidate frequencies")
	}
	cands := append([]float64(nil), candidatesMHz...)
	sort.Sort(sort.Reverse(sort.Float64Slice(cands)))

	fp := &FrequencyPlanner{profiles: map[workload.Priority][]FrequencyProfile{}}
	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		baseT, baseP, ok := cluster.MixCost(model, dt, classes, pri, 0)
		if !ok {
			return nil, fmt.Errorf("polca: no classes at priority %v", pri)
		}
		for _, mhz := range cands {
			// ok holds as at the base clock: no class weight or plan
			// depends on the lock.
			t, p, _ := cluster.MixCost(model, dt, classes, pri, mhz)
			fp.profiles[pri] = append(fp.profiles[pri], FrequencyProfile{
				ClockMHz:  mhz,
				PerfLoss:  t/baseT - 1,
				PowerSave: 1 - p/baseP,
			})
		}
	}
	return fp, nil
}

// Profiles returns the planner's profiles for a priority (clock-descending).
func (fp *FrequencyPlanner) Profiles(p workload.Priority) []FrequencyProfile {
	return fp.profiles[p]
}

// DeepestWithin returns the lowest candidate clock whose profiled slowdown
// stays within the budget, or 0 (no cap) if even the highest candidate
// exceeds it.
func (fp *FrequencyPlanner) DeepestWithin(p workload.Priority, perfBudget float64) float64 {
	best := 0.0
	for _, prof := range fp.profiles[p] {
		if prof.PerfLoss <= perfBudget {
			best = prof.ClockMHz // candidates are clock-descending
		}
	}
	return best
}

// WorkloadAware is the §6.7 extension of the dual-threshold policy: instead
// of the fixed Table 5 frequencies, it picks per-priority capping clocks
// from profiled workload sensitivity so each action reclaims the most
// power its SLO budget allows.
type WorkloadAware struct {
	base    Config
	planner *FrequencyPlanner

	// Per-threshold budgets (fractions of execution slowdown).
	T1Budget   float64 // low priority at T1
	T2LPBudget float64 // low priority at T2
	T2HPBudget float64 // high priority at T2

	inner *Policy
}

// NewWorkloadAware builds the workload-aware policy: the dual-threshold
// structure of cfg with frequencies replanned from the classes' profiles.
// Budgets default to the Table 6 SLO p50 bounds (LP 5%, HP 1%) with the
// T1 action at half the low-priority budget.
func NewWorkloadAware(cfg Config, model llm.Model, dt llm.DType, classes []workload.Class) (*WorkloadAware, error) {
	planner, err := NewFrequencyPlanner(model, dt, classes,
		[]float64{1380, 1350, 1305, 1275, 1230, 1185, 1140, 1110, 1050, 990})
	if err != nil {
		return nil, err
	}
	slos := workload.SLOs()
	w := &WorkloadAware{
		base:       cfg,
		planner:    planner,
		T1Budget:   slos[workload.Low].P50Impact / 2,
		T2LPBudget: slos[workload.Low].P50Impact,
		T2HPBudget: slos[workload.High].P50Impact,
	}
	tuned := cfg
	if mhz := planner.DeepestWithin(workload.Low, w.T1Budget); mhz > 0 {
		tuned.LPBaseMHz = mhz
	}
	if mhz := planner.DeepestWithin(workload.Low, w.T2LPBudget); mhz > 0 {
		tuned.LPDeepMHz = mhz
	}
	if mhz := planner.DeepestWithin(workload.High, w.T2HPBudget); mhz > 0 {
		tuned.HPCapMHz = mhz
	}
	if tuned.LPDeepMHz > tuned.LPBaseMHz {
		tuned.LPDeepMHz = tuned.LPBaseMHz
	}
	if err := tuned.Validate(); err != nil {
		return nil, err
	}
	w.inner = New(tuned)
	return w, nil
}

// Name implements cluster.Controller.
func (w *WorkloadAware) Name() string {
	c := w.inner.Config()
	return fmt.Sprintf("POLCA-aware(%.0f/%.0f/%.0f MHz)", c.LPBaseMHz, c.LPDeepMHz, c.HPCapMHz)
}

// Frequencies returns the planned capping clocks (T1 LP, T2 LP, T2 HP).
func (w *WorkloadAware) Frequencies() (lpBase, lpDeep, hpCap float64) {
	c := w.inner.Config()
	return c.LPBaseMHz, c.LPDeepMHz, c.HPCapMHz
}

// OnTelemetry implements cluster.Controller by delegating to the tuned
// dual-threshold state machine.
func (w *WorkloadAware) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	w.inner.OnTelemetry(now, util, act)
}

// Reset implements cluster.Restartable by restarting the tuned state
// machine (the planned frequencies are configuration, not state).
func (w *WorkloadAware) Reset() { w.inner.Reset() }

var (
	_ cluster.Controller  = (*WorkloadAware)(nil)
	_ cluster.Restartable = (*WorkloadAware)(nil)
)

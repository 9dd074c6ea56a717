package polca

import (
	"fmt"
	"sort"

	"polca/internal/cluster"
	"polca/internal/llm"
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

// PlanWorkloadAware is the §6.7 extension of the dual-threshold policy:
// cfg's thresholds with the three capping clocks replanned from the
// classes' profiled sensitivity, so each action reclaims the most power its
// SLO budget allows. The budgets are the Table 6 SLO p50 bounds (LP 5%,
// HP 1%), with the T1 action at half the low-priority budget. Run the plan
// with New.
func PlanWorkloadAware(cfg Config, model llm.Model, dt llm.DType, classes []workload.Class) (Config, error) {
	planner, err := NewFrequencyPlanner(model, dt, classes,
		[]float64{1380, 1350, 1305, 1275, 1230, 1185, 1140, 1110, 1050, 990})
	if err != nil {
		return Config{}, err
	}
	slos := workload.SLOs()
	if mhz := planner.DeepestWithin(workload.Low, slos[workload.Low].P50Impact/2); mhz > 0 {
		cfg.LPBaseMHz = mhz
	}
	if mhz := planner.DeepestWithin(workload.Low, slos[workload.Low].P50Impact); mhz > 0 {
		cfg.LPDeepMHz = mhz
	}
	if mhz := planner.DeepestWithin(workload.High, slos[workload.High].P50Impact); mhz > 0 {
		cfg.HPCapMHz = mhz
	}
	if cfg.LPDeepMHz > cfg.LPBaseMHz {
		cfg.LPDeepMHz = cfg.LPBaseMHz
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

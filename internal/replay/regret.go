package replay

import (
	"fmt"
	"sort"
	"time"

	"polca/internal/cluster"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/workload"
)

// Profiler converts a pool lock into execution-time and busy-power factors
// relative to uncapped, using the class-mix cost model the simulation runs
// on (cluster.MixCost). Factors are
// memoized per (priority, lock) — the replay grid revisits a handful of
// clocks thousands of times.
type Profiler struct {
	model   llm.Model
	dt      llm.DType
	classes []workload.Class
	memo    map[profKey][2]float64 // time factor, power factor
}

type profKey struct {
	pri  workload.Priority
	lock float64
}

// NewProfiler builds a profiler from the log header: the recorded model
// and dtype when present, the Production defaults otherwise. The class mix
// is the Table 6 production mix — the header does not carry classes, so
// scenario-specific mixes profile approximately.
func NewProfiler(meta obs.DecisionMeta) (*Profiler, error) {
	model := cluster.Production().Model
	if meta.Model != "" {
		m, err := llm.ByName(meta.Model)
		if err != nil {
			return nil, fmt.Errorf("replay: header model: %w", err)
		}
		model = m
	}
	dt := llm.FP16
	switch meta.DType {
	case "", "fp16":
	case "fp32":
		dt = llm.FP32
	case "int8":
		dt = llm.INT8
	case "fp8":
		dt = llm.FP8
	default:
		return nil, fmt.Errorf("replay: header dtype %q unknown", meta.DType)
	}
	return &Profiler{
		model:   model,
		dt:      dt,
		classes: workload.Table6(),
		memo:    map[profKey][2]float64{},
	}, nil
}

// Factors returns (timeFactor, powerFactor) for running the priority's mix
// at the given lock: both 1.0 uncapped, timeFactor > 1 and powerFactor < 1
// under a cap.
func (p *Profiler) Factors(pri workload.Priority, lockMHz float64) (tf, pf float64) {
	key := profKey{pri, lockMHz}
	if v, ok := p.memo[key]; ok {
		return v[0], v[1]
	}
	// A priority with no classes profiles as uncapped.
	tf, pf = 1, 1
	if baseT, baseP, ok := cluster.MixCost(p.model, p.dt, p.classes, pri, 0); ok {
		t, w, _ := cluster.MixCost(p.model, p.dt, p.classes, pri, lockMHz) // ok as at 0 MHz
		tf, pf = t/baseT, w/baseP
	}
	p.memo[key] = [2]float64{tf, pf}
	return tf, pf
}

// TickRegret prices one diverged tick: what the alternate's locks would
// have cost or reclaimed relative to the deployed decision, estimated from
// the recorded busy/power snapshot — no re-simulation.
type TickRegret struct {
	Seq          uint64 // the tick's seq in the log, as TickOutcome.Seq
	At           time.Duration
	RecLP, RecHP float64 // deployed locks (0 = uncap)
	AltLP, AltHP float64 // alternate locks
	// DeltaW is the estimated row power change under the alternate
	// (positive = alternate runs hotter, i.e. the deployed config capped
	// harder than the alternate would have).
	DeltaW float64
	// HeadroomJ is energy the deployed config refused while the row had
	// safe headroom: DeltaW ×(telemetry interval) on ticks where the
	// alternate runs hotter without estimated brake risk.
	HeadroomJ float64
	// LatencyS is busy-server execution seconds the deployed config burned
	// relative to the alternate (positive = deployed was slower; negative =
	// the alternate would have been).
	LatencyS float64
	// SavedJ is energy the alternate would have reclaimed on ticks where
	// it caps deeper than the deployed config did.
	SavedJ float64
	// BrakeRisk marks ticks where the alternate's extra power pushes the
	// estimated utilization to the brake threshold: reclaiming that
	// headroom risks tripping the breaker the deployed config respected.
	BrakeRisk bool
}

// Score is the tick's regret magnitude used for top-K ranking: joules of
// headroom left plus joules the alternate would have saved, so both
// directions of divergence rank.
func (t TickRegret) Score() float64 { return t.HeadroomJ + t.SavedJ }

// PolicySummary aggregates one alternate cap policy's replay.
type PolicySummary struct {
	Name     string
	Ticks    int
	Diverged int
	// HeadroomJ totals energy the deployed config left unreclaimed vs this
	// alternate on safe ticks; SavedJ totals energy this alternate would
	// have reclaimed by capping deeper; LatencyS totals execution seconds
	// the deployed config burned relative to this alternate (negative =
	// this alternate would have burned more).
	HeadroomJ      float64
	SavedJ         float64
	LatencyS       float64
	BrakeRiskTicks int
	// EnergyPerReqJ is HeadroomJ+SavedJ spread over the log's route count
	// (serve mode) — a per-request scale for the divergence. Zero when the
	// log has no routes.
	EnergyPerReqJ float64
	// TopRegret holds the K highest-scoring diverged ticks, descending.
	TopRegret []TickRegret
}

// Evaluate replays the log against one alternate cap policy and prices
// every diverged tick. topK bounds the per-policy regret table (0 keeps
// every diverged tick).
func Evaluate(l *Log, name string, ctrl cluster.Controller, prof *Profiler, topK int) *PolicySummary {
	outs := ReplayCaps(l, ctrl)
	sum := &PolicySummary{Name: name, Ticks: len(outs)}
	var regrets []TickRegret
	ti := 0
	for i, d := range l.Decisions {
		if d.Kind != obs.DecTick {
			continue
		}
		o := outs[ti]
		ti++
		if !o.Diverged {
			continue
		}
		sum.Diverged++
		r := TickRegret{
			Seq: uint64(i + 1), At: d.At,
			RecLP: d.LPDesiredMHz, RecHP: d.HPDesiredMHz,
			AltLP: o.LPMHz, AltHP: o.HPMHz,
		}
		step := (l.Meta.BusyServerW - l.Meta.IdleServerW)
		for _, pri := range []workload.Priority{workload.Low, workload.High} {
			busy, rec, alt := float64(d.LPBusy), d.LPDesiredMHz, o.LPMHz
			if pri == workload.High {
				busy, rec, alt = float64(d.HPBusy), d.HPDesiredMHz, o.HPMHz
			}
			if busy == 0 || rec == alt {
				continue
			}
			tfRec, pfRec := prof.Factors(pri, rec)
			tfAlt, pfAlt := prof.Factors(pri, alt)
			r.DeltaW += busy * step * (pfAlt - pfRec)
			r.LatencyS += busy * (tfRec - tfAlt) * l.Meta.TelemetrySec
		}
		if l.Meta.ProvisionedW > 0 {
			estUtil := d.TrueUtil + r.DeltaW/l.Meta.ProvisionedW
			r.BrakeRisk = r.DeltaW > 0 && estUtil >= l.Meta.BrakeUtil
		}
		switch {
		case r.DeltaW > 0 && !r.BrakeRisk:
			r.HeadroomJ = r.DeltaW * l.Meta.TelemetrySec
		case r.DeltaW < 0:
			r.SavedJ = -r.DeltaW * l.Meta.TelemetrySec
		}
		if r.BrakeRisk {
			sum.BrakeRiskTicks++
		}
		sum.HeadroomJ += r.HeadroomJ
		sum.SavedJ += r.SavedJ
		sum.LatencyS += r.LatencyS
		regrets = append(regrets, r)
	}
	sort.Slice(regrets, func(i, j int) bool {
		if regrets[i].Score() != regrets[j].Score() {
			return regrets[i].Score() > regrets[j].Score()
		}
		return regrets[i].Seq < regrets[j].Seq
	})
	if topK > 0 && len(regrets) > topK {
		regrets = regrets[:topK]
	}
	sum.TopRegret = regrets
	if n := l.Routes(); n > 0 {
		sum.EnergyPerReqJ = (sum.HeadroomJ + sum.SavedJ) / float64(n)
	}
	return sum
}

// NamedPolicy pairs an alternate controller with its display name.
type NamedPolicy struct {
	Name string
	Ctrl cluster.Controller
}

// Alternates builds the standard comparison set for a log: the deployed
// configuration itself (the fidelity anchor), polca's single-threshold
// baselines, and no-cap. Guard wrapping follows the deployed run:
// alternates face the same telemetry faults the log records.
func Alternates(l *Log) ([]NamedPolicy, error) {
	deployed, err := DeployedController(l)
	if err != nil {
		return nil, err
	}
	out := []NamedPolicy{{Name: "deployed", Ctrl: deployed}}
	for _, alt := range []NamedPolicy{
		{Name: "1t-lowpri", Ctrl: polca.NewSingleThresholdLowPri()},
		{Name: "1t-all", Ctrl: polca.NewSingleThresholdAll()},
		{Name: "nocap", Ctrl: polca.NoCap{}},
	} {
		if alt.Ctrl, err = polca.Guarded(alt.Ctrl, l.Meta.Guard); err != nil {
			return nil, err
		}
		out = append(out, alt)
	}
	return out, nil
}

// ThresholdGrid builds POLCA variants sweeping T1 and T2 around the
// deployed thresholds by the given offsets; variants whose thresholds
// fall outside (0,1) or invert are skipped. Non-POLCA logs get no grid.
func ThresholdGrid(l *Log, offsets []float64) []NamedPolicy {
	base := l.Meta.Spec
	if base.Kind != "polca" {
		return nil
	}
	var out []NamedPolicy
	for _, d1 := range offsets {
		for _, d2 := range offsets {
			spec := base
			spec.T1 += d1
			spec.T2 += d2
			if spec.T1 == base.T1 && spec.T2 == base.T2 {
				continue
			}
			ctrl, err := polca.ControllerFromSpec(spec, l.Meta.Guard)
			if err != nil {
				continue
			}
			out = append(out, NamedPolicy{
				Name: fmt.Sprintf("T1=%.2f,T2=%.2f", spec.T1, spec.T2),
				Ctrl: ctrl,
			})
		}
	}
	return out
}

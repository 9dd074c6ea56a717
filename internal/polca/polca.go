// Package polca implements POLCA, the paper's power-oversubscription
// framework for LLM inference clusters (§6), as cluster.Controller
// policies: the dual-threshold priority-aware frequency-capping policy of
// Table 5, the baselines it is evaluated against (1-Thresh-Low-Pri,
// 1-Thresh-All, No-cap), and the threshold-training procedure that derives
// T1/T2 from a historical power trace. Every threshold policy is a table
// of rungs on one state machine, Policy.
//
// The policy is deliberately simple (§6.2): thresholds on row-level power
// utilization, hysteresis to avoid capping/uncapping oscillation, and
// priority ordering so that low-priority workloads shield high-priority
// ones from power reclamation.
package polca

import (
	"fmt"
	"math"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/workload"
)

// Config parameterizes the dual-threshold policy. Utilizations are
// fractions of the row's provisioned power.
type Config struct {
	// T1 is the lower threshold: low-priority servers lock to LPBaseMHz.
	T1 float64
	// T2 is the upper threshold: low-priority servers lock to LPDeepMHz;
	// if utilization is still at or above T2 on a later tick, high-priority
	// servers lock to HPCapMHz.
	T2 float64
	// UncapMargin is the hysteresis band: an action engaged at threshold T
	// releases only when utilization falls below T - UncapMargin (§6.3:
	// 5% based on parameter sweeps).
	UncapMargin float64

	// Capping frequencies (Table 5). Defaults: the A100 base clock
	// 1275 MHz at T1, 1110 MHz for low priority at T2, and 1305 MHz for
	// high priority at T2 (negligible performance impact, Insight 7).
	LPBaseMHz float64
	LPDeepMHz float64
	HPCapMHz  float64
}

// DefaultConfig returns the paper's chosen configuration: T1 = 80%,
// T2 = 89%, 5% uncap margin, Table 5 frequencies.
func DefaultConfig() Config {
	return Config{
		T1:          0.80,
		T2:          0.89,
		UncapMargin: 0.05,
		LPBaseMHz:   1275,
		LPDeepMHz:   1110,
		HPCapMHz:    1305,
	}
}

// Validate reports whether the configuration is coherent.
func (c Config) Validate() error {
	switch {
	case c.T1 <= 0 || c.T2 <= c.T1 || c.T2 > 1.2:
		return fmt.Errorf("polca: bad thresholds T1=%v T2=%v", c.T1, c.T2)
	case c.UncapMargin <= 0 || c.UncapMargin >= c.T1:
		return fmt.Errorf("polca: bad uncap margin %v", c.UncapMargin)
	case c.LPBaseMHz <= 0 || c.LPDeepMHz <= 0 || c.HPCapMHz <= 0:
		return fmt.Errorf("polca: non-positive capping frequency")
	case c.LPDeepMHz > c.LPBaseMHz:
		return fmt.Errorf("polca: T2 low-priority clock above T1 clock")
	}
	return nil
}

// Policy is the threshold controller every capping policy in this package
// runs on: a table of rungs (see Rung), each locking pool clocks with its
// own trigger, hysteresis and delay. POLCA, the 1-Thresh baselines and the
// §6.3 multi-rung extension are rung tables built by New,
// NewSingleThresholdLowPri, NewSingleThresholdAll and NewLadder. It is
// stateful and not safe for concurrent use; each simulated row owns one.
type Policy struct {
	name  string
	spec  obs.PolicySpec // what DescribeController reports
	rungs []rungState    // descending trigger order, stable

	// Controller-view TSDB series (nil when the run has no TSDB), bound
	// lazily on the first telemetry tick so construction needs no actuator.
	ctrlUtil  *obs.TSSeries
	ctrlStage *obs.TSSeries
	tsdbBound bool
}

// rungState is one rung with its trace reasons (built once, so emission
// never formats) and its hysteresis state.
type rungState struct {
	Rung
	engage, release string
	engaged         bool
	hot             int // hot ticks since utilization was last below Trigger-Margin
}

// New returns the dual-threshold POLCA policy of Table 5 as three rungs:
// "t1" locks low priority to LPBaseMHz at T1, "t2.lp" locks it to
// LPDeepMHz at T2, and "t2.hp" locks high priority to HPCapMHz if
// utilization is still at T2 on a later tick. It panics on an invalid
// configuration.
func New(cfg Config) *Policy { return must(newPOLCA(cfg)) }

// must panics on a constructor error; the paper's fixed settings are
// valid, and New documents its panic.
func must(p *Policy, err error) *Policy {
	if err != nil {
		panic(err)
	}
	return p
}

func newPOLCA(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.UncapMargin
	return newPolicy(
		fmt.Sprintf("POLCA(T1=%.0f%%,T2=%.0f%%)", cfg.T1*100, cfg.T2*100),
		obs.PolicySpec{
			Kind: "polca",
			T1:   cfg.T1, T2: cfg.T2, UncapMargin: m,
			LPBaseMHz: cfg.LPBaseMHz, LPDeepMHz: cfg.LPDeepMHz, HPCapMHz: cfg.HPCapMHz,
		},
		[]Rung{
			{Name: "t1", Trigger: cfg.T1, Margin: m, LowMHz: cfg.LPBaseMHz},
			{Name: "t2.lp", Trigger: cfg.T2, Margin: m, LowMHz: cfg.LPDeepMHz},
			{Name: "t2.hp", Trigger: cfg.T2, Margin: m, HighMHz: cfg.HPCapMHz, Delay: 1},
		})
}

// NewSingleThresholdLowPri returns the paper's 1-Thresh-Low-Pri baseline:
// one unnamed rung at 89% that locks the low-priority pool straight to the
// deep 1110 MHz clock, with POLCA's 5% hysteresis.
func NewSingleThresholdLowPri() *Policy { return must(newSingleThreshold(0.89, 0.05, 1110, false)) }

// NewSingleThresholdAll returns the paper's 1-Thresh-All baseline: the
// same rung, locking both pools.
func NewSingleThresholdAll() *Policy { return must(newSingleThreshold(0.89, 0.05, 1110, true)) }

// newSingleThreshold builds the 1-Thresh family: one rung locking the
// low-priority pool, or both pools when all is set.
func newSingleThreshold(threshold, margin, lockMHz float64, all bool) (*Policy, error) {
	name, high := "1-Thresh-Low-Pri", 0.0
	if all {
		name, high = "1-Thresh-All", lockMHz
	}
	return newPolicy(
		fmt.Sprintf("%s(%.0f%%)", name, threshold*100),
		obs.PolicySpec{Kind: "1t", Threshold: threshold, Margin: margin, LockMHz: lockMHz, All: all},
		[]Rung{{Trigger: threshold, Margin: margin, LowMHz: lockMHz, HighMHz: high}})
}

// Name implements cluster.Controller.
func (p *Policy) Name() string { return p.name }

// OnTelemetry implements cluster.Controller: each rung engages at its
// trigger once Delay earlier hot ticks have passed and releases below
// Trigger - Margin; inside that band it holds both its state and its count
// of hot ticks. Every pool is then locked to the deepest clock among the
// engaged rungs (0 = unlocked).
func (p *Policy) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	var lp, hp float64
	for i := range p.rungs {
		r := &p.rungs[i]
		switch {
		case util >= r.Trigger:
			r.hot++
			if !r.engaged && r.hot > r.Delay {
				r.engaged = true
				p.emit(act, now, r.engage, util)
			}
		case util < r.Trigger-r.Margin:
			r.hot = 0
			if r.engaged {
				r.engaged = false
				p.emit(act, now, r.release, util)
			}
		}
		if r.engaged {
			lp = deeper(lp, r.LowMHz)
			hp = deeper(hp, r.HighMHz)
		}
	}
	act.SetPoolLock(workload.Low, lp)
	act.SetPoolLock(workload.High, hp)
	p.observeState(now, util, act)
}

// deeper returns the lower of two pool clocks, where 0 means unlocked.
func deeper(cur, mhz float64) float64 {
	if mhz > 0 && (cur == 0 || mhz < cur) {
		return mhz
	}
	return cur
}

// emit traces one rung transition through the actuator's observer; a
// disabled observer returns before the event value is even built.
func (p *Policy) emit(act cluster.Actuator, now sim.Time, reason string, util float64) {
	tr := act.Observer().Trace()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		At: now, Kind: obs.KindThreshold, Server: -1, Pool: obs.PoolNone,
		Value: util, Reason: reason, Label: p.name,
	})
}

// observeState records the controller's view into the run's sim-time
// TSDB: the utilization it acted on (which under telemetry faults can
// diverge from the row's physical reading) and Stage as a step series.
// Observation-only; a run without a TSDB pays two nil-receiver branches.
func (p *Policy) observeState(now sim.Time, util float64, act cluster.Actuator) {
	if !p.tsdbBound {
		p.tsdbBound = true
		if db := act.Observer().TimeSeries(); db != nil {
			p.ctrlUtil = db.Series("ctrl.util", obs.LevelRow, obs.WithUnit("frac"))
			p.ctrlStage = db.Series("ctrl.stage", obs.LevelRow, obs.WithUnit("stage"))
		}
	}
	p.ctrlUtil.Observe(now, util)
	p.ctrlStage.Observe(now, float64(p.Stage()))
}

// Reset implements cluster.Restartable: a cold-restarted controller comes
// back with no rung engaged and re-derives its state from the next
// telemetry tick; delayed rungs need a fresh run of hot ticks.
func (p *Policy) Reset() {
	for i := range p.rungs {
		p.rungs[i].engaged = false
		p.rungs[i].hot = 0
	}
}

// NoCap is the uncontrolled baseline: it never caps; only the row's
// built-in power brake protects the breaker.
type NoCap struct{}

// Name implements cluster.Controller.
func (NoCap) Name() string { return "No-cap" }

// OnTelemetry implements cluster.Controller.
func (NoCap) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	act.SetPoolLock(workload.Low, 0)
	act.SetPoolLock(workload.High, 0)
}

// Reset implements cluster.Restartable (stateless, so a no-op).
func (NoCap) Reset() {}

// NewNamed builds the controller a policy name selects: "polca" (the
// dual-threshold policy under cfg), "1tl" and "1ta" (the single-threshold
// baselines) or "nocap". Only "polca" reads cfg.
func NewNamed(name string, cfg Config) (cluster.Controller, error) {
	switch name {
	case "polca":
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return New(cfg), nil
	case "1tl":
		return NewSingleThresholdLowPri(), nil
	case "1ta":
		return NewSingleThresholdAll(), nil
	case "nocap":
		return NoCap{}, nil
	}
	return nil, fmt.Errorf("polca: unknown policy %q", name)
}

// TrainThresholds derives T1/T2 from a historical utilization trace
// (§6.3/§6.5): T2 sits below the brake point by the largest power rise
// observed within the OOB capping latency (so a spike that begins just as
// capping is triggered still cannot reach the brake); T1 sits one more
// such band below, engaging the gentle low-priority action early enough to
// usually avoid T2 entirely. Results are rounded down to whole percent.
func TrainThresholds(ref stats.Series, brakeUtil float64, oobLatency time.Duration) Config {
	rise := ref.MaxRise(oobLatency)
	if rise < 0.02 {
		rise = 0.02
	}
	t2 := math.Floor((brakeUtil-rise)*100) / 100
	t1 := math.Floor((t2-rise*0.8)*100) / 100
	cfg := DefaultConfig()
	cfg.T1 = t1
	cfg.T2 = t2
	if cfg.Validate() != nil {
		return DefaultConfig()
	}
	return cfg
}

var (
	_ cluster.Controller  = (*Policy)(nil)
	_ cluster.Controller  = NoCap{}
	_ cluster.Restartable = (*Policy)(nil)
	_ cluster.Restartable = NoCap{}
)

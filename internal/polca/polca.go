// Package polca implements POLCA, the paper's power-oversubscription
// framework for LLM inference clusters (§6), as cluster.Controller
// policies: the dual-threshold priority-aware frequency-capping policy of
// Table 5, the baselines it is evaluated against (1-Thresh-Low-Pri,
// 1-Thresh-All, No-cap), and the threshold-training procedure that derives
// T1/T2 from a historical power trace.
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

// emitThreshold traces one policy threshold transition through the
// actuator's observer. Reasons are static strings ("t1.engage",
// "t2.hp.release") so emission never allocates; a disabled observer
// returns before the event value is even built.
func emitThreshold(act cluster.Actuator, now sim.Time, label, reason string, util float64) {
	tr := act.Observer().Trace()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		At: now, Kind: obs.KindThreshold, Server: -1, Pool: obs.PoolNone,
		Value: util, Reason: reason, Label: label,
	})
}

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

// Policy is the dual-threshold POLCA controller. It is stateful (engaged
// thresholds with hysteresis) and not safe for concurrent use; each
// simulated row owns one.
type Policy struct {
	cfg Config

	t1Engaged   bool // LP at base clock
	t2LPEngaged bool // LP at deep clock
	t2HPEngaged bool // HP capped
	t2Armed     bool

	// Controller-view TSDB series (nil when the run has no TSDB), bound
	// lazily on the first telemetry tick so construction needs no actuator.
	ctrlUtil  *obs.TSSeries
	ctrlStage *obs.TSSeries
	tsdbBound bool
}

// New returns a Policy with the given configuration. It panics on an
// invalid configuration.
func New(cfg Config) *Policy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Policy{cfg: cfg}
}

// Name implements cluster.Controller.
func (p *Policy) Name() string {
	return fmt.Sprintf("POLCA(T1=%.0f%%,T2=%.0f%%)", p.cfg.T1*100, p.cfg.T2*100)
}

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// OnTelemetry implements cluster.Controller: the Table 5 state machine.
func (p *Policy) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	c := p.cfg

	// T2, low priority: engage at T2, release below T2 - margin.
	switch {
	case util >= c.T2 && !p.t2LPEngaged:
		p.t2LPEngaged = true
		p.t2Armed = false
		emitThreshold(act, now, p.Name(), "t2.lp.engage", util)
	case util < c.T2-c.UncapMargin && p.t2LPEngaged:
		p.t2LPEngaged = false
		emitThreshold(act, now, p.Name(), "t2.lp.release", util)
		if p.t2HPEngaged {
			p.t2HPEngaged = false
			emitThreshold(act, now, p.Name(), "t2.hp.release", util)
		}
	}

	// T2, high priority: only if utilization remains at T2 after the LP
	// action had a chance to land (a later tick), to avoid touching
	// high-priority workloads until absolutely necessary (§6.3).
	if p.t2LPEngaged && util >= c.T2 {
		if p.t2Armed && !p.t2HPEngaged {
			p.t2HPEngaged = true
			emitThreshold(act, now, p.Name(), "t2.hp.engage", util)
		}
		p.t2Armed = true
	}
	if p.t2HPEngaged && util < c.T2-c.UncapMargin {
		p.t2HPEngaged = false
		emitThreshold(act, now, p.Name(), "t2.hp.release", util)
	}

	// T1: engage at T1, release below T1 - margin.
	switch {
	case util >= c.T1 && !p.t1Engaged:
		p.t1Engaged = true
		emitThreshold(act, now, p.Name(), "t1.engage", util)
	case util < c.T1-c.UncapMargin && p.t1Engaged:
		p.t1Engaged = false
		emitThreshold(act, now, p.Name(), "t1.release", util)
	}

	// Desired state for the pools.
	lp := 0.0
	if p.t1Engaged {
		lp = c.LPBaseMHz
	}
	if p.t2LPEngaged {
		lp = c.LPDeepMHz
	}
	hp := 0.0
	if p.t2HPEngaged {
		hp = c.HPCapMHz
	}
	act.SetPoolLock(workload.Low, lp)
	act.SetPoolLock(workload.High, hp)
	p.observeState(now, util, act)
}

// observeState records the controller's view into the run's sim-time
// TSDB: the utilization it acted on (which under telemetry faults can
// diverge from the row's physical reading) and the engaged stage as a
// step series (0 = uncapped, 1 = T1, 2 = T2 low-priority, 3 = T2 both).
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

// Engaged reports the current threshold state (for tests and inspection).
func (p *Policy) Engaged() (t1, t2LP, t2HP bool) {
	return p.t1Engaged, p.t2LPEngaged, p.t2HPEngaged
}

// Reset implements cluster.Restartable: a cold-restarted controller comes
// back with no thresholds engaged and re-derives its state from the next
// telemetry tick.
func (p *Policy) Reset() {
	p.t1Engaged = false
	p.t2LPEngaged = false
	p.t2HPEngaged = false
	p.t2Armed = false
}

// SingleThreshold is the 1-Thresh baseline family: one trigger that locks
// the selected pools straight to the deep frequency, with the same
// hysteresis margin.
type SingleThreshold struct {
	// Threshold is the trigger utilization (the paper evaluates 89%).
	Threshold float64
	// Margin is the uncap hysteresis band.
	Margin float64
	// LockMHz is the capping frequency applied when triggered.
	LockMHz float64
	// AllPriorities selects 1-Thresh-All (cap both pools) over
	// 1-Thresh-Low-Pri (cap only low priority).
	AllPriorities bool

	engaged bool
}

// Name implements cluster.Controller.
func (s *SingleThreshold) Name() string {
	if s.AllPriorities {
		return fmt.Sprintf("1-Thresh-All(%.0f%%)", s.Threshold*100)
	}
	return fmt.Sprintf("1-Thresh-Low-Pri(%.0f%%)", s.Threshold*100)
}

// OnTelemetry implements cluster.Controller.
func (s *SingleThreshold) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	switch {
	case util >= s.Threshold && !s.engaged:
		s.engaged = true
		emitThreshold(act, now, s.Name(), "engage", util)
	case util < s.Threshold-s.Margin && s.engaged:
		s.engaged = false
		emitThreshold(act, now, s.Name(), "release", util)
	}
	lock := 0.0
	if s.engaged {
		lock = s.LockMHz
	}
	act.SetPoolLock(workload.Low, lock)
	if s.AllPriorities {
		act.SetPoolLock(workload.High, lock)
	} else {
		act.SetPoolLock(workload.High, 0)
	}
}

// Reset implements cluster.Restartable.
func (s *SingleThreshold) Reset() { s.engaged = false }

// NewSingleThresholdLowPri returns the paper's 1-Thresh-Low-Pri baseline.
func NewSingleThresholdLowPri() *SingleThreshold {
	return &SingleThreshold{Threshold: 0.89, Margin: 0.05, LockMHz: 1110}
}

// NewSingleThresholdAll returns the paper's 1-Thresh-All baseline.
func NewSingleThresholdAll() *SingleThreshold {
	return &SingleThreshold{Threshold: 0.89, Margin: 0.05, LockMHz: 1110, AllPriorities: true}
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
	_ cluster.Controller  = (*SingleThreshold)(nil)
	_ cluster.Controller  = NoCap{}
	_ cluster.Restartable = (*Policy)(nil)
	_ cluster.Restartable = (*SingleThreshold)(nil)
	_ cluster.Restartable = NoCap{}
)

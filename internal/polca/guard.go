package polca

import (
	"fmt"
	"sort"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// GuardConfig parameterizes the telemetry validity layer. Utilization
// values are fractions of the row's provisioned power, counts are in
// telemetry ticks (2 s in the production configuration). It converts to
// and from obs.GuardSpec, the decision-log header's form, so the two
// types must keep the same fields in the same order.
type GuardConfig struct {
	// Window is the length of the median filter applied to raw readings
	// before they reach the wrapped policy. Single-tick spikes within the
	// window are voted out; genuine load changes pass after a one-tick lag.
	Window int
	// StuckAfter is how many consecutive byte-identical readings mark the
	// sensor as stuck. A busy row's power reading essentially never
	// repeats exactly, so exact equality is the stuck-at signature.
	StuckAfter int
	// StuckMinUtil disarms the stuck detector below this reading: a quiet
	// row genuinely plateaus (every server idle draws constant power), so
	// constancy is only implausible — and a frozen sensor only dangerous —
	// when the row reads busy. 0 arms the detector everywhere.
	StuckMinUtil float64
	// FailSafeAfter is how many consecutive invalid ticks (lost, stuck)
	// engage the fail-safe conservative cap.
	FailSafeAfter int
	// MaxStep is the largest per-tick utilization move the filter accepts
	// from a raw reading; larger jumps are treated as spikes and replaced
	// by the window median.
	MaxStep float64
	// FailSafeLPMHz and FailSafeHPMHz are the conservative locks asserted
	// while the fail-safe is engaged: the Table 5 deep clocks, the same
	// frequencies POLCA would choose at T2 — safe for the breaker at any
	// load the row can physically reach.
	FailSafeLPMHz float64
	FailSafeHPMHz float64
}

// DefaultGuardConfig returns the guard used by the hardened policies in
// the fault experiments: median-of-3 filter, stuck after 5 identical
// readings, fail-safe after 10 invalid ticks (20 s), 10%-of-provisioned
// step limit, Table 5 deep clocks as the fail-safe.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{
		Window:        3,
		StuckAfter:    5,
		StuckMinUtil:  0.5,
		FailSafeAfter: 10,
		MaxStep:       0.10,
		FailSafeLPMHz: 1110,
		FailSafeHPMHz: 1305,
	}
}

// Validate reports whether the configuration is coherent.
func (c GuardConfig) Validate() error {
	switch {
	case c.Window < 1:
		return fmt.Errorf("polca: guard window %d < 1", c.Window)
	case c.StuckAfter < 2:
		return fmt.Errorf("polca: guard stuck-after %d < 2", c.StuckAfter)
	case c.StuckMinUtil < 0 || c.StuckMinUtil > 1:
		return fmt.Errorf("polca: guard stuck floor %v outside [0, 1]", c.StuckMinUtil)
	case c.FailSafeAfter < 1:
		return fmt.Errorf("polca: guard fail-safe-after %d < 1", c.FailSafeAfter)
	case c.MaxStep <= 0 || c.MaxStep > 1:
		return fmt.Errorf("polca: guard max step %v outside (0, 1]", c.MaxStep)
	case c.FailSafeLPMHz <= 0 || c.FailSafeHPMHz <= 0:
		return fmt.Errorf("polca: non-positive fail-safe frequency")
	}
	return nil
}

// GuardStats counts what the validity layer did, for tests and reports.
type GuardStats struct {
	// Delivered is the number of readings passed to the wrapped policy.
	Delivered int
	// Outliers is the number of raw readings replaced by the window median
	// (spike suppressed, still delivered).
	Outliers int
	// StuckTicks is the number of ticks discarded as stuck-at repeats.
	StuckTicks int
	// LostTicks is the number of ticks with no reading at all.
	LostTicks int
	// FailSafeEngagements counts distinct fail-safe episodes.
	FailSafeEngagements int
}

// Guard wraps any cluster.Controller with a telemetry validity layer
// (§3.3: OOB telemetry is slow and unreliable, and a power manager that
// trusts it blindly inherits its failures). Readings pass through a
// median filter with spike rejection; exact-repeat readings are detected
// as a stuck sensor and discarded; and after FailSafeAfter consecutive
// invalid ticks the guard stops trusting the stream entirely and asserts
// a conservative cap on both pools until a valid reading returns.
//
// While readings are invalid but the fail-safe has not yet engaged, the
// wrapped policy is driven with the last valid filtered reading so it
// keeps reasserting its current decision rather than acting on garbage.
//
// Guard is itself a cluster.Controller and composes with any policy:
// NewGuard(polca.New(cfg), polca.DefaultGuardConfig()).
type Guard struct {
	inner cluster.Controller
	cfg   GuardConfig

	window   []float64 // ring of raw accepted readings
	sorted   []float64 // scratch the median sorts, as long as window
	wlen     int
	wpos     int
	lastRaw  float64
	repeats  int     // consecutive exact repeats of lastRaw
	lastGood float64 // last filtered value delivered to inner
	haveGood bool
	stale    int // consecutive invalid ticks
	failSafe bool
	stats    GuardStats
}

// NewGuard wraps inner with the validity layer. It panics on a nil inner
// controller or an invalid configuration (programmer error, matching New).
func NewGuard(inner cluster.Controller, cfg GuardConfig) *Guard {
	if inner == nil {
		panic("polca: NewGuard with nil inner controller")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Guard{
		inner:  inner,
		cfg:    cfg,
		window: make([]float64, cfg.Window),
		sorted: make([]float64, cfg.Window),
	}
}

// Name implements cluster.Controller.
func (g *Guard) Name() string { return fmt.Sprintf("Guard(%s)", g.inner.Name()) }

// Inner returns the wrapped policy.
func (g *Guard) Inner() cluster.Controller { return g.inner }

// Stats returns the validity-layer counters.
func (g *Guard) Stats() GuardStats { return g.stats }

// FailSafeEngaged reports whether the conservative cap is currently
// asserted.
func (g *Guard) FailSafeEngaged() bool { return g.failSafe }

// median returns the median of the current window contents.
func (g *Guard) median() float64 {
	tmp := g.sorted[:g.wlen]
	copy(tmp, g.window[:g.wlen])
	sort.Float64s(tmp)
	return tmp[g.wlen/2]
}

// OnTelemetry implements cluster.Controller.
func (g *Guard) OnTelemetry(now sim.Time, util float64, act cluster.Actuator) {
	// Stuck-at detection: exact repeats of the previous raw reading, armed
	// only when the row reads busy enough that a genuine plateau is
	// implausible.
	if g.wlen > 0 && util == g.lastRaw && util >= g.cfg.StuckMinUtil {
		g.repeats++
	} else {
		g.repeats = 0
	}
	g.lastRaw = util
	if g.repeats >= g.cfg.StuckAfter-1 {
		g.stats.StuckTicks++
		g.invalidTick(now, act)
		return
	}

	// Admit the raw reading into the window, then filter.
	if g.wlen < len(g.window) {
		g.window[g.wlen] = util
		g.wlen++
	} else {
		g.window[g.wpos] = util
		g.wpos = (g.wpos + 1) % len(g.window)
	}
	filtered := util
	if med := g.median(); g.haveGood && util > g.lastGood+g.cfg.MaxStep && util > med+g.cfg.MaxStep {
		// An upward jump implausible for one tick that the window does not
		// corroborate: a spike. Downward jumps are let through — treating a
		// real reading as too *high* only caps early, never late.
		filtered = med
		g.stats.Outliers++
	}
	g.deliver(now, filtered, act)
}

// OnTelemetryLoss implements cluster.TelemetryLossAware: a tick with no
// reading at all (dropout or blackout window).
func (g *Guard) OnTelemetryLoss(now sim.Time, act cluster.Actuator) {
	g.stats.LostTicks++
	g.repeats = 0
	g.invalidTick(now, act)
}

// deliver passes a valid filtered reading to the wrapped policy and
// releases the fail-safe if it was engaged.
func (g *Guard) deliver(now sim.Time, filtered float64, act cluster.Actuator) {
	if g.failSafe {
		g.failSafe = false
		g.emit(act, now, obs.KindFailSafeRelease, filtered)
		// The inner policy reasserts its own locks on this same tick, so no
		// explicit unlock is needed here.
	}
	g.stale = 0
	g.lastGood = filtered
	g.haveGood = true
	g.stats.Delivered++
	g.inner.OnTelemetry(now, filtered, act)
}

// invalidTick handles a tick whose reading is missing or untrustworthy.
func (g *Guard) invalidTick(now sim.Time, act cluster.Actuator) {
	g.stale++
	if g.stale >= g.cfg.FailSafeAfter {
		if !g.failSafe {
			g.failSafe = true
			g.stats.FailSafeEngagements++
			g.emit(act, now, obs.KindFailSafeEngage, float64(g.stale))
		}
		// Reassert every stale tick: the OOB pipeline is lossy, and a
		// fail-safe that issues its cap once can lose it silently.
		act.SetPoolLock(workload.Low, g.cfg.FailSafeLPMHz)
		act.SetPoolLock(workload.High, g.cfg.FailSafeHPMHz)
		return
	}
	if g.haveGood {
		// Hold-last-good: keep the policy asserting its current decision.
		g.inner.OnTelemetry(now, g.lastGood, act)
	}
}

// Reset implements cluster.Restartable: the filter state, staleness
// count, and fail-safe all clear, and the wrapped policy restarts too if
// it can.
func (g *Guard) Reset() {
	g.wlen = 0
	g.wpos = 0
	g.lastRaw = 0
	g.repeats = 0
	g.lastGood = 0
	g.haveGood = false
	g.stale = 0
	g.failSafe = false
	if r, ok := g.inner.(cluster.Restartable); ok {
		r.Reset()
	}
}

// emit traces a fail-safe transition through the actuator's observer.
func (g *Guard) emit(act cluster.Actuator, now sim.Time, kind obs.Kind, v float64) {
	tr := act.Observer().Trace()
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		At: now, Kind: kind, Server: -1, Pool: obs.PoolNone,
		Value: v, Label: g.Name(),
	})
}

var (
	_ cluster.Controller         = (*Guard)(nil)
	_ cluster.Restartable        = (*Guard)(nil)
	_ cluster.TelemetryLossAware = (*Guard)(nil)
)

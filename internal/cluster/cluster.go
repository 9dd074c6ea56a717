// Package cluster implements the discrete-event simulation of an LLM
// inference row (paper §6.4): a PDU-level power domain containing GPU
// servers that serve BLOOM-class inference requests, a row manager sampling
// aggregate power every 2 s, an out-of-band actuation pipeline with the
// paper's 40 s latency and silent-failure behaviour, and the UPS-protecting
// power brake.
//
// A power-management policy plugs in through the Controller interface; the
// polca package provides the paper's dual-threshold policy and the
// baselines it is compared against.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"polca/internal/faults"
	"polca/internal/gpu"
	"polca/internal/llm"
	"polca/internal/obs"
	"polca/internal/plan"
	"polca/internal/serve"
	"polca/internal/server"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
	"polca/internal/workload"
)

// RowConfig describes the simulated row (paper Table 2 plus the
// oversubscription knobs of §6.5).
type RowConfig struct {
	// BaseServers is the number of servers the row's power budget was
	// provisioned for (Table 2: 40).
	BaseServers int
	// AddedFraction is the oversubscription level: 0.30 deploys 30% more
	// servers under the same power budget.
	AddedFraction float64
	// LowPriorityFraction is the share of servers allocated to the
	// low-priority pool (the allocator's priority mix, §6.3).
	LowPriorityFraction float64
	// ProvisionedPerServerWatts is the derated per-server power slice the
	// row budget is built from (§5: derating reclaims the gap between the
	// 6.5 kW rating and realistic peaks).
	ProvisionedPerServerWatts float64

	// Model and DType describe the served model (the paper evaluates
	// BLOOM-176B, its worst-case capping workload).
	Model llm.Model
	DType llm.DType

	// Classes is the workload mix (defaults to Table 6).
	Classes []workload.Class

	// TelemetryInterval is the row manager sampling period (Table 2: 2 s).
	TelemetryInterval time.Duration
	// BrakeLatency is the power-brake engage latency (Table 2: 5 s).
	BrakeLatency time.Duration
	// OOBLatency is the frequency/power capping actuation latency
	// (Table 2: 40 s).
	OOBLatency time.Duration
	// OOBFailureProb is the chance an OOB command fails silently (§3.3).
	OOBFailureProb float64
	// BrakeUtil is the row utilization that triggers a power brake.
	BrakeUtil float64
	// BrakeReleaseUtil is the utilization below which the brake releases.
	BrakeReleaseUtil float64
	// BrakeHold is the minimum time a brake stays engaged once applied —
	// operators release the emergency lever conservatively, and instant
	// release would oscillate (the hysteresis failure mode of §6.1).
	BrakeHold time.Duration

	// PowerIntensity scales GPU power draw (1.05 models workloads becoming
	// 5% more power-intensive than profiled, §6.6).
	PowerIntensity float64

	// Faults configures deterministic fault injection (zero value = no
	// faults); see the faults package for the scenario DSL. Injection draws
	// only from its own named random streams, so a disabled spec leaves the
	// simulation byte-identical.
	Faults faults.Spec

	// WatchdogEpochs arms the row-side deadman watchdog: after this many
	// consecutive telemetry epochs without controller contact the row
	// self-caps both pools at the Table 5 deep caps (1110 MHz low priority,
	// 1305 MHz high priority). 0 disables (the pre-hardening behaviour).
	WatchdogEpochs int

	// OOBRetryBudget bounds how many times one desired-lock change may be
	// issued to a server before the row stops retrying it (0 = retry
	// forever, the pre-hardening behaviour).
	OOBRetryBudget int
	// OOBRetryBackoff delays each re-issue after a failed command, doubling
	// per consecutive failure of the same target (0 = re-issue on the next
	// telemetry tick).
	OOBRetryBackoff time.Duration

	// TTFTSLO is the time-to-first-token SLO threshold behind the TSDB's
	// SLO counters (row.ttft_ok / row.ttft_total) that burn-rate alert
	// rules consume in serve mode. Zero defaults to 15 s. Telemetry-only:
	// it never affects scheduling or admission.
	TTFTSLO time.Duration

	// Serve switches the row from the slot model to the request-level
	// serving backend: one continuous-batching serve.Replica per server,
	// with arrivals spread by the configured router. Nil (the default) keeps
	// the slot model; a pointer to the zero Config serves the row's own
	// Model/DType with the serve package defaults. See serverow.go.
	Serve *serve.Config

	// ServeRetries arms the serve-mode failover path: a request dropped by
	// node death, an empty routable endpoint set, or a full replica queue
	// re-enters the router up to this many times before it is finally
	// dropped with reason "retry-exhausted". Tokens generated by a failed
	// attempt are discarded and recomputed, consistent with the KV
	// preempt-and-recompute model. 0 (the default) keeps the drop-only
	// behaviour. Serve mode only; ignored by the slot backend.
	ServeRetries int
	// ServeRetryBackoff is the base delay before a retried request
	// re-enters the router, doubling per attempt (capped at 64× the base).
	// Zero defaults to the telemetry interval. The backoff is a pure
	// function of the attempt number — no randomness — so retry traffic is
	// deterministic.
	ServeRetryBackoff time.Duration
	// ServeClassShed arms SLO-class-aware load shedding: under a power
	// emergency (brake pending or engaged, watchdog engaged, a deep
	// frequency cap applied, or sustained KV high water) admission degrades
	// by class — batch/sheddable traffic first, the critical interactive
	// class last. Off (the default), admission is class-blind.
	ServeClassShed bool
	// ShedRanks overrides the LowShare-derived class-shed ranking with an
	// explicit per-class rank (0 sheds first, 2 never sheds). Scenario
	// specs declare SLO classes directly, so their compiled class tables
	// carry the declared ladder instead of the Table 6 heuristic. Nil
	// keeps the derived ranking; classes absent from the map fall back to
	// request priority, as before.
	ShedRanks map[string]int
	// ServeCircuitSheds arms per-replica circuit breaking: a replica that
	// sheds this many requests at its queue cap within one telemetry epoch
	// is removed from routing for ServeCircuitCooldown (zero cooldown
	// defaults to 30 s). 0 disables.
	ServeCircuitSheds    int
	ServeCircuitCooldown time.Duration
	// WatchdogDrain makes an engaged deadman watchdog also put every serve
	// replica into graceful drain — in-flight decodes finish, new
	// admissions are refused (and retried or shed) — until controller
	// contact resumes. Off by default; slot mode ignores it.
	WatchdogDrain bool

	// DropStaleOOB makes the row discard an in-flight command whose target
	// was superseded before it landed, instead of applying the outdated
	// lock. Off (the default), a landed command applies whatever value it
	// carried — what a BMC without sequence numbers does, and the paper
	// figures' historical behaviour. The hardened configurations turn this
	// on so a revoked decision can never actuate late.
	DropStaleOOB bool

	// Seed drives all of the row's randomness.
	Seed int64
}

// watchdogLPMHz and watchdogHPMHz are the deadman watchdog's
// conservative self-cap clocks: the Table 5 deep caps for low and high
// priority.
const (
	watchdogLPMHz = 1110
	watchdogHPMHz = 1305
)

// Production returns the paper's production row configuration (Table 2)
// serving BLOOM-176B.
func Production() RowConfig {
	return RowConfig{
		BaseServers:               40,
		AddedFraction:             0,
		LowPriorityFraction:       0.5,
		ProvisionedPerServerWatts: 4600,
		Model:                     llm.MustByName("BLOOM-176B"),
		DType:                     llm.FP16,
		Classes:                   workload.Table6(),
		TelemetryInterval:         2 * time.Second,
		BrakeLatency:              5 * time.Second,
		OOBLatency:                40 * time.Second,
		OOBFailureProb:            0.02,
		BrakeUtil:                 1.0,
		BrakeReleaseUtil:          0.92,
		BrakeHold:                 30 * time.Second,
		PowerIntensity:            1.0,
		Seed:                      1,
	}
}

// MeanServiceSeconds estimates the mean uncapped end-to-end service time
// of requests at the given priority, from the class mix and the inference
// plan model (class means of input/output sizes).
func (c RowConfig) MeanServiceSeconds(p workload.Priority) float64 { return c.meanServiceAt(p, 0) }

// meanServiceAt is MeanServiceSeconds with the GPUs' SM clock locked at
// lock MHz (0 = unlocked).
func (c RowConfig) meanServiceAt(p workload.Priority, lock float64) float64 {
	sec, _, ok := MixCost(c.Model, c.DType, c.Classes, p, lock)
	if !ok {
		return 1
	}
	return sec
}

// MixCost is the one class-mix cost model: the share-weighted mean
// execution seconds and mean busy GPU watts of the priority's classes on
// one A100 with its SM clock locked at lockMHz (0 = unlocked), each class
// planned at batch 1 at its midpoint prompt and output lengths. A class
// that fails to plan contributes nothing; ok is false when no class has
// weight at the priority. The slot row's service times, polca's
// workload-aware frequency planner and replay's lock profiler all cost the
// mix here.
func MixCost(model llm.Model, dt llm.DType, classes []workload.Class, pri workload.Priority, lockMHz float64) (seconds, watts float64, ok bool) {
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	dev.LockClock(lockMHz)
	var wsum, tsum, esum float64
	for _, cl := range classes {
		w := cl.Share * cl.LowShare
		if pri == workload.High {
			w = cl.Share * (1 - cl.LowShare)
		}
		if w <= 0 {
			continue
		}
		pl, err := plan.NewInference(plan.InferenceConfig{
			Model: model, DType: dt, BatchSize: 1,
			InputTokens:  (cl.PromptMin + cl.PromptMax) / 2,
			OutputTokens: (cl.OutputMin + cl.OutputMax) / 2,
		})
		if err != nil {
			continue
		}
		var dur time.Duration
		var energy float64
		for _, ph := range pl.Phases() {
			e := dev.Run(ph)
			dur += e.Duration
			energy += e.Energy()
		}
		wsum += w
		tsum += w * dur.Seconds()
		esum += w * energy / dur.Seconds()
	}
	if wsum == 0 {
		return 0, 0, false
	}
	return tsum / wsum, esum / wsum, true
}

// BusyServerWatts estimates the mean server power while serving a request
// (mix-weighted mean over classes and priorities).
func (c RowConfig) BusyServerWatts() float64 {
	dev := gpu.NewDevice(gpu.A100SXM80GB())
	srv := server.New(0, server.DGXA100(gpu.A100SXM80GB()))
	var esum, tsum float64
	for _, cl := range c.Classes {
		pl, err := plan.NewInference(plan.InferenceConfig{
			Model: c.Model, DType: c.DType, BatchSize: 1,
			InputTokens:  (cl.PromptMin + cl.PromptMax) / 2,
			OutputTokens: (cl.OutputMin + cl.OutputMax) / 2,
		})
		if err != nil {
			continue
		}
		for _, ph := range pl.Phases() {
			e := dev.Run(ph)
			esum += cl.Share * e.Energy()
			tsum += cl.Share * e.Duration.Seconds()
		}
	}
	if tsum == 0 {
		return srv.IdleWatts()
	}
	gpuW := esum / tsum * float64(srv.Spec().GPUCount) * c.PowerIntensity
	return srv.PowerFromGPUs(gpuW)
}

// lowPoolServers returns the number of deployed servers in the
// low-priority pool.
func (c RowConfig) lowPoolServers() int {
	return int(float64(c.Servers())*c.LowPriorityFraction + 0.5)
}

// poolServiceSeconds returns both pools' MeanServiceSeconds, indexed by
// priority.
func (c RowConfig) poolServiceSeconds() [2]float64 {
	return [2]float64{c.MeanServiceSeconds(workload.Low), c.MeanServiceSeconds(workload.High)}
}

// lowArrivalProb returns the probability an arrival targets the low pool,
// given the pools' mean service times. Pool weight ∝ poolSize /
// meanServiceTime, so equal arrival pressure translates into equal busy
// fractions despite different service times.
func (c RowConfig) lowArrivalProb(svc [2]float64) float64 {
	lp := c.lowPoolServers()
	wLow := float64(lp) / svc[workload.Low]
	wHigh := float64(c.Servers()-lp) / svc[workload.High]
	if wLow+wHigh > 0 {
		return wLow / (wLow + wHigh)
	}
	return 0
}

// IdleServerWatts returns the power of an idle server.
func (c RowConfig) IdleServerWatts() float64 {
	return server.New(0, server.DGXA100(gpu.A100SXM80GB())).IdleWatts()
}

// Shape returns the trace.ClusterShape used to fit an arrival plan for
// this row: the *base* server count (arrival volume is what the original
// row served; oversubscription scales it separately via RatePlan.Scale)
// with the effective aggregate service time 1/λ when both pools run at
// equal busy fractions.
func (c RowConfig) Shape() trace.ClusterShape {
	sLP := c.MeanServiceSeconds(workload.Low)
	sHP := c.MeanServiceSeconds(workload.High)
	lp := c.LowPriorityFraction
	// λ_total = busy · N · (lp/sLP + (1-lp)/sHP)  ⇒  S_eff = 1/(lp/sLP + …)
	denom := lp/sLP + (1-lp)/sHP
	return trace.ClusterShape{
		Servers:          c.BaseServers,
		ProvisionedWatts: c.ProvisionedWatts(),
		IdleServerWatts:  c.IdleServerWatts(),
		BusyServerWatts:  c.BusyServerWatts(),
		MeanServiceSec:   1 / denom,
	}
}

// ProductionArrivals is the §6.4 arrival recipe every trace-fitted row
// runs on: a production reference power trace over the horizon, drawn from
// rng, fitted by FitProductionArrivals.
func ProductionArrivals(c RowConfig, horizon time.Duration, rng *rand.Rand) (trace.RatePlan, error) {
	return FitProductionArrivals(c, ProductionReference(horizon, rng))
}

// fitBucket is the bucket the production reference is fitted on.
const fitBucket = 5 * time.Minute

// ProductionReference draws the production reference power trace over the
// horizon from rng and averages it to the fit's 5-minute buckets, the only
// resolution FitProductionArrivals reads. Rows that share a seed and
// horizon can share the series.
func ProductionReference(horizon time.Duration, rng *rand.Rand) stats.Series {
	return trace.ProductionInference().Reference(horizon, rng).Downsample(fitBucket)
}

// FitProductionArrivals fits a ProductionReference series on 5-minute
// buckets to the rate plan that reproduces it on this row's shape at
// PowerIntensity 1 (operators sized the row on the profiled workload,
// before it drifted), then scales the plan by 1+AddedFraction for the
// servers added under the same budget. A series at a finer step fits to
// the same plan, since the fit averages it to the bucket first.
func FitProductionArrivals(c RowConfig, ref stats.Series) (trace.RatePlan, error) {
	c.PowerIntensity = 1
	plan, err := trace.FitArrivals(ref, c.Shape(), fitBucket)
	if err != nil {
		return trace.RatePlan{}, err
	}
	return plan.Scale(1 + c.AddedFraction), nil
}

// BrakeSafetyBound is the longest excursion above BrakeUtil the brake
// contract allows: the brake's engage latency and hold, plus two telemetry
// intervals of measurement slack (the breach sample and the post-engage
// settling sample).
func (c RowConfig) BrakeSafetyBound() time.Duration {
	return c.BrakeLatency + c.BrakeHold + 2*c.TelemetryInterval
}

// Servers returns the deployed server count including oversubscription.
func (c RowConfig) Servers() int {
	n := int(float64(c.BaseServers)*(1+c.AddedFraction) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// ProvisionedWatts returns the row power budget. It does not grow with
// AddedFraction — that is the point of oversubscription.
func (c RowConfig) ProvisionedWatts() float64 {
	return float64(c.BaseServers) * c.ProvisionedPerServerWatts
}

// Validate reports whether the configuration is usable.
func (c RowConfig) Validate() error {
	switch {
	case c.BaseServers <= 0:
		return fmt.Errorf("cluster: no servers")
	case c.AddedFraction < 0 || c.AddedFraction > 1:
		return fmt.Errorf("cluster: added fraction %v outside [0,1]", c.AddedFraction)
	case c.LowPriorityFraction < 0 || c.LowPriorityFraction > 1:
		return fmt.Errorf("cluster: low-priority fraction %v outside [0,1]", c.LowPriorityFraction)
	case c.ProvisionedPerServerWatts <= 0:
		return fmt.Errorf("cluster: no per-server budget")
	case c.Model.Params <= 0:
		return fmt.Errorf("cluster: no model")
	case c.TelemetryInterval <= 0 || c.BrakeLatency <= 0 || c.OOBLatency <= 0:
		return fmt.Errorf("cluster: non-positive latency")
	case c.BrakeHold < 0:
		return fmt.Errorf("cluster: negative brake hold")
	case c.OOBFailureProb < 0 || c.OOBFailureProb >= 1:
		return fmt.Errorf("cluster: bad OOB failure probability %v", c.OOBFailureProb)
	case c.BrakeUtil <= 0 || c.BrakeReleaseUtil <= 0 || c.BrakeReleaseUtil > c.BrakeUtil:
		return fmt.Errorf("cluster: bad brake thresholds")
	case c.PowerIntensity <= 0:
		return fmt.Errorf("cluster: bad power intensity")
	case c.WatchdogEpochs < 0:
		return fmt.Errorf("cluster: negative watchdog epochs")
	case c.OOBRetryBudget < 0:
		return fmt.Errorf("cluster: negative OOB retry budget")
	case c.OOBRetryBackoff < 0:
		return fmt.Errorf("cluster: negative OOB retry backoff")
	case c.TTFTSLO < 0:
		return fmt.Errorf("cluster: negative TTFT SLO")
	case c.ServeRetries < 0:
		return fmt.Errorf("cluster: negative serve retry budget")
	case c.ServeRetryBackoff < 0:
		return fmt.Errorf("cluster: negative serve retry backoff")
	case c.ServeCircuitSheds < 0:
		return fmt.Errorf("cluster: negative circuit-breaker shed threshold")
	case c.ServeCircuitCooldown < 0:
		return fmt.Errorf("cluster: negative circuit-breaker cooldown")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	// The serve config needs the GPU spec to validate fully (model fit, KV
	// headroom); NewRow does that in newServeBackend. Here we only reject an
	// obviously broken router name early.
	if c.Serve != nil && c.Serve.Router != "" {
		if _, err := serve.NewRouter(c.Serve.Router); err != nil {
			return err
		}
	}
	if err := workload.Validate(c.Classes); err != nil {
		return err
	}
	return nil
}

// Actuator is the control surface a power-management policy drives. All
// actions go through the OOB pipeline: they take effect after the
// configured latency and may fail silently (the row re-issues unapplied
// commands on each telemetry tick, modelling the guardrails §3.3 demands).
type Actuator interface {
	// SetPoolLock requests every server of the pool to lock its GPUs' SM
	// clock at mhz; 0 requests an unlock.
	SetPoolLock(p workload.Priority, mhz float64)
	// Observer returns the run's observability sink (nil when disabled) so
	// policies can trace their decisions. Observation is read-only with
	// respect to the simulation: emitting events must never change control
	// behaviour.
	Observer() *obs.Observer
}

// Controller is a row power-management policy. OnTelemetry runs at every
// row-manager sample with the current utilization (row power divided by
// provisioned power).
type Controller interface {
	Name() string
	OnTelemetry(now sim.Time, util float64, act Actuator)
}

// Restartable is an optional Controller extension. Reset returns the
// controller to its cold-start state; the row invokes it when a crashed
// controller restarts, modelling a process restart that loses all
// hysteresis and engagement state.
type Restartable interface {
	Reset()
}

// StageReporter is an optional Controller extension: Stage reports the
// policy's current engagement depth (0 = fully uncapped; higher = deeper
// capping). The decision-provenance recorder snapshots it each tick so a
// replay can see the deployed policy's internal position, not just its
// output locks.
type StageReporter interface {
	Stage() int
}

// TelemetryLossAware is an optional Controller extension. On epochs where
// the telemetry sample was lost (dropout or blackout), the row invokes
// OnTelemetryLoss instead of OnTelemetry, so hardened controllers can
// track staleness and apply fail-safe caps instead of flying blind.
// Controllers without it simply see no callback on lost epochs — which the
// deadman watchdog treats as controller silence.
type TelemetryLossAware interface {
	Controller
	OnTelemetryLoss(now sim.Time, act Actuator)
}

// Metrics aggregates one simulation run.
type Metrics struct {
	Config      RowConfig
	Policy      string
	Provisioned float64
	// Util is the row-manager utilization series (2 s samples).
	Util stats.Series
	// LatencySec holds end-to-end request latencies (queueing included).
	LatencySec map[workload.Priority][]float64
	// Arrived and Completed count requests per priority.
	Arrived   map[workload.Priority]int
	Completed map[workload.Priority]int
	// BusySec accumulates service time (excluding queueing) per priority.
	BusySec map[workload.Priority]float64
	// Dropped counts requests shed because the row's buffering (one
	// request per server, §6.6) was exhausted.
	Dropped map[workload.Priority]int
	// BrakeEvents counts power-brake engagements (Figure 18's metric).
	BrakeEvents int
	// LockCommands and FailedCommands count OOB actuation traffic.
	LockCommands   int
	FailedCommands int
	// MaxQueueLen is the deepest central spillover queue observed.
	MaxQueueLen int

	// Degraded-mode accounting (all zero on a healthy, unhardened run).
	// StaleOOBDrops counts in-flight commands discarded at landing because
	// the desired lock changed while they were in flight.
	StaleOOBDrops int
	// OOBRetries counts re-issues of a desired lock after a failed or
	// dropped command; OOBRetriesExhausted counts targets abandoned after
	// the retry budget ran out.
	OOBRetries          int
	OOBRetriesExhausted int
	// WatchdogEngagements counts deadman-watchdog self-caps.
	WatchdogEngagements int
	// NodeDeaths counts server down-transitions from injected kill windows.
	NodeDeaths int
	// NodeDrains counts server entries into graceful-drain (maintenance)
	// windows from the faults DSL's drain action.
	NodeDrains int

	// Serve-mode fault-tolerance accounting (all zero with the hardening
	// knobs off). ServeRetries counts requests re-entering the router via
	// the failover path; ServeRetryExhausted counts requests finally
	// dropped after exhausting the retry budget; CircuitOpens counts
	// replica admission circuits tripping on queue-full shed storms.
	ServeRetries        int
	ServeRetryExhausted int
	CircuitOpens        int
	// Faults tallies what the injector actually injected during the run.
	Faults faults.Counts

	// Serve-mode accounting (populated only when Config.Serve is non-nil).
	// TTFT and TBT hold per-class streaming sketches of time-to-first-token
	// and mean time-between-tokens (keyed by Table 6 class name) — bounded
	// memory regardless of run length, unlike the full slices they replaced.
	TTFT map[string]*obs.Digest
	TBT  map[string]*obs.Digest
	// ClassEnergyJ and ClassTokens accumulate per-class attributed GPU
	// energy (tensor-parallel-group joules) and generated tokens, including
	// the partial progress of dropped requests so energy stays conserved.
	ClassEnergyJ map[string]float64
	ClassTokens  map[string]int64
	// Per-class goodput accounting (keyed by Table 6 class name).
	// ClassArrived counts first admissions (retries excluded); ClassSLOOK
	// counts requests whose first token landed within the TTFT SLO;
	// ClassShed counts requests dropped by SLO-class-aware load shedding.
	ClassArrived map[string]int
	ClassSLOOK   map[string]int
	ClassShed    map[string]int
	// Serve aggregates the replicas' scheduler counters.
	Serve ServeStats
}

// The methods below are the one definition of each number the figures and
// polca-sim derive from a run's counters.

// Throughput returns completed requests per server-second for the pool,
// sized as NewRow splits the row; 0 for an empty pool or an empty series.
func (m *Metrics) Throughput(p workload.Priority) float64 {
	n := m.Config.lowPoolServers()
	if p == workload.High {
		n = m.Config.Servers() - n
	}
	if n <= 0 || m.Util.Duration() <= 0 {
		return 0
	}
	return float64(m.Completed[p]) / float64(n) / m.Util.Duration().Seconds()
}

// ClassJPerToken returns the class's attributed joules per generated
// token, 0 for a class that generated none.
func (m *Metrics) ClassJPerToken(class string) float64 {
	if t := m.ClassTokens[class]; t > 0 {
		return m.ClassEnergyJ[class] / float64(t)
	}
	return 0
}

// ClassAttainment returns the class's SLO attainment: the fraction of its
// first admissions whose first token met the TTFT SLO, 0 for a class with
// no arrivals.
func (m *Metrics) ClassAttainment(class string) float64 {
	if a := m.ClassArrived[class]; a > 0 {
		return float64(m.ClassSLOOK[class]) / float64(a)
	}
	return 0
}

// AttainmentJain returns Jain's fairness index of ClassAttainment over the
// configured classes that had arrivals, taken in workload.Names order.
func (m *Metrics) AttainmentJain() float64 {
	var fracs []float64
	for _, name := range workload.Names(m.Config.Classes) {
		if m.ClassArrived[name] > 0 {
			fracs = append(fracs, m.ClassAttainment(name))
		}
	}
	return stats.Jain(fracs)
}

// ClassSheds returns the requests SLO-class-aware shedding dropped, over
// every class.
func (m *Metrics) ClassSheds() int {
	n := 0
	for _, v := range m.ClassShed {
		n += v
	}
	return n
}

// node is one simulated server.
type node struct {
	idx int
	pri workload.Priority
	srv *server.Server
	dev *gpu.Device // representative device; all 8 GPUs behave identically

	appliedLock float64 // written only by Row.applyLock
	cmdInFlight bool

	// dead marks the node as inside an injected kill window: it draws no
	// power, serves nothing, and revives cold when the window ends.
	dead bool
	// draining marks the node as inside an injected maintenance-drain
	// window: it refuses new admissions while finishing accepted work.
	draining bool

	// Retry bookkeeping for the current desired-lock target: how many
	// commands were issued for it, the backoff gate, and whether the retry
	// budget is exhausted. All reset when the desired lock changes.
	retryTarget float64
	retryCount  int
	retryWait   sim.Time
	retryDead   bool

	// Telemetry-sampling constants, cached at construction: the idle draw
	// of the representative device and the GPU-group scale (device power →
	// aggregate GPU power). nodePower runs on every sub-tick for every
	// node, and fetching these through the spec copies it each time.
	gpuIdleW float64
	gpuScale float64
	// nodePower's cache: the node's server draw and busy flag, valid at
	// every instant before powUntil. A node's draw is piecewise constant,
	// and the sampler reads it eight times per telemetry epoch. Every
	// writer of the node's power source calls Row.powerChanged.
	powW     float64
	powBusy  bool
	powUntil sim.Time
}

// backend is the request-serving half of a row: it executes requests on
// the nodes and reports their power. The control plane — telemetry,
// brake, controller and watchdog, OOB pipeline, faults, decision log and
// TSDB wiring — is written once against it. NewRow picks the slot model
// (slotrow.go) or the serving model (serverow.go) from RowConfig.Serve;
// nothing else branches on the mode.
type backend interface {
	// dispatch takes one request the row has recorded as arrived.
	dispatch(now sim.Time, req workload.Request)
	// load returns a live node's per-GPU power draw, whether it is
	// executing work, and the first instant at which either may differ
	// without the row being told through Row.powerChanged.
	load(n *node, now sim.Time) (gpuW float64, busy bool, until sim.Time)
	// replan re-times the node's in-flight work after its clocks changed
	// (a landed lock or the power brake).
	replan(n *node, now sim.Time)
	// admit runs after a lock landed on a server of pool p.
	admit(p workload.Priority, now sim.Time)
	// kill drops the work of a node that just died.
	kill(n *node, now sim.Time)
	// watchdog follows the deadman watchdog engaging or releasing.
	watchdog(now sim.Time, engaged bool)
	// tick runs once per telemetry epoch, after the OOB pump: health
	// bookkeeping and the backend's TSDB samples.
	tick(now sim.Time)
	// tsdbSeries registers the backend's row-level TSDB series and returns
	// the registration of its per-server series, called in server order.
	tsdbSeries(ts *rowTSDB) func(i int, lbl string)
	// finish settles the backend's state into the metrics at end of run.
	finish(now sim.Time)
}

// Row is the simulated PDU power domain.
type Row struct {
	cfg     RowConfig
	eng     *sim.Engine
	loop    ControlLoop
	be      backend
	nodes   []*node
	pools   [2][]*node // indexed by workload.Priority
	sampler *workload.Sampler

	// arrivalPlan is the offered-load curve of the current run.
	arrivalPlan trace.RatePlan
	// gate caches each pool's admission limit (slotBackend.admitLimit),
	// indexed by workload.Priority. Its inputs change only in
	// setArrivalPlan and applyLock, which reset it.
	gate [2]admitGate

	dispatchRNG *rand.Rand
	oobRNG      *rand.Rand

	// lowArrivalProb is the probability an arrival targets the low pool.
	lowArrivalProb float64

	// Sub-interval power accumulation for interval-averaged row readings.
	powerSum     float64
	powerSamples int
	// instantUtilization's cache, valid at every instant before utilUntil:
	// the earliest node horizon, reset by Row.powerChanged.
	util      float64
	utilUntil sim.Time

	braked       bool
	brakePending bool
	brakeHeld    sim.Time // earliest release time

	// desired is each pool's desired SM-clock lock (0 = unlocked), indexed
	// by workload.Priority; the OOB pump drives every node toward its
	// pool's value.
	desired [2]float64

	// Fault-injection runtime (nil = no faults) and degraded-mode state.
	inj *faults.Injector
	// lastReading is the previous telemetry value delivered to the
	// controller, which stuck-at windows repeat.
	lastReading float64
	haveReading bool
	// ctrlDown tracks an in-progress controller crash.
	ctrlDown bool

	telemetryTick sim.Timer
	telemetrySub  sim.Timer

	metrics *Metrics

	// Observability handles, cached at construction so the hot paths pay a
	// single nil-receiver branch when disabled.
	obs          *obs.Observer
	tracer       *obs.Tracer
	spanSink     *obs.SpanTracer
	utilGauge    *obs.Gauge
	utilHist     *obs.Histogram
	arrivedCtr   [2]*obs.Counter // indexed by workload.Priority
	completedCtr [2]*obs.Counter
	droppedCtr   [2]*obs.Counter
	lockCmdCtr   *obs.Counter
	failedCmdCtr *obs.Counter
	brakeCtr     *obs.Counter

	// tsdb is the sim-time TSDB wiring (nil unless the observer carries a
	// TSDB); see tsdbwire.go.
	tsdb *rowTSDB

	// Decision-provenance recording (nil unless the observer carries a
	// DecisionRecorder). ctrlStage and ctrlFailSafe are the controller's
	// optional introspection interfaces, cached at construction; tickDec
	// holds the in-progress telemetry epoch's input flags, which
	// controllerTick fills and the control loop reads.
	dec          *obs.DecisionRecorder
	ctrlStage    StageReporter
	ctrlFailSafe interface{ FailSafeEngaged() bool }
	tickDec      obs.Decision
}

// NewRow builds a row on the engine with the given policy. It returns an
// error for an invalid configuration — configurations reach this point from
// CLI flags and experiment specs, so rejecting them is the library's job,
// not a crash. A nil controller remains a panic: no caller constructs one
// dynamically.
func NewRow(eng *sim.Engine, cfg RowConfig, ctrl Controller) (*Row, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		panic("cluster: nil controller")
	}
	spec := server.DGXA100(gpu.A100SXM80GB())
	svc := cfg.poolServiceSeconds()
	r := &Row{
		cfg:            cfg,
		eng:            eng,
		sampler:        workload.NewSampler(cfg.Classes, eng.Rand("workload")),
		dispatchRNG:    eng.Rand("dispatch"),
		oobRNG:         eng.Rand("oob"),
		lowArrivalProb: cfg.lowArrivalProb(svc),
		metrics: &Metrics{
			Config:      cfg,
			Policy:      ctrl.Name(),
			Provisioned: cfg.ProvisionedWatts(),
			LatencySec:  map[workload.Priority][]float64{},
			Arrived:     map[workload.Priority]int{},
			Completed:   map[workload.Priority]int{},
			BusySec:     map[workload.Priority]float64{},
			Dropped:     map[workload.Priority]int{},
		},
	}
	r.loop = NewControlLoop(ctrl, cfg.WatchdogEpochs, r.deadman)
	total := cfg.Servers()
	lp := cfg.lowPoolServers()
	for i := 0; i < total; i++ {
		pri := workload.High
		if i < lp {
			pri = workload.Low
		}
		s := server.New(i, spec)
		n := &node{idx: i, pri: pri, srv: s, dev: s.GPUs()[0]}
		n.gpuIdleW = n.dev.Spec().IdleWatts
		n.gpuScale = float64(s.Spec().GPUCount) * cfg.PowerIntensity
		r.nodes = append(r.nodes, n)
		r.pools[pri] = append(r.pools[pri], n)
	}
	// The injector is nil for an empty spec, so the unfaulted hot paths pay
	// one branch. Its streams are named, independent draws from the engine:
	// creating them perturbs nothing.
	r.inj = faults.New(cfg.Faults, total, eng.Rand)
	o := eng.Observer()
	if o != nil {
		r.obs = o
		r.tracer = o.Trace()
		r.spanSink = o.SpanSink()
		r.utilGauge = o.Gauge("row_util")
		r.utilHist = o.Histogram("row_util_seconds", obs.DefaultUtilBuckets)
		for _, p := range []workload.Priority{workload.Low, workload.High} {
			lbl := obs.Label("priority", p.String())
			r.arrivedCtr[p] = o.Counter(obs.MergeLabels("row_requests_arrived_total", lbl))
			r.completedCtr[p] = o.Counter(obs.MergeLabels("row_requests_completed_total", lbl))
			r.droppedCtr[p] = o.Counter(obs.MergeLabels("row_requests_dropped_total", lbl))
		}
		r.lockCmdCtr = o.Counter("row_oob_commands_total")
		r.failedCmdCtr = o.Counter("row_oob_failures_total")
		r.brakeCtr = o.Counter("row_brake_events_total")
		r.dec = o.DecisionLog()
		if r.dec != nil {
			r.ctrlStage, _ = ctrl.(StageReporter)
			r.ctrlFailSafe, _ = ctrl.(interface{ FailSafeEngaged() bool })
		}
	}
	// Fill the decision log's row-shape header fields; the CLI layer adds
	// the policy spec (it knows the concrete policy package types), and
	// the serving backend its router.
	r.dec.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Policy = ctrl.Name()
		m.WatchdogEpochs = cfg.WatchdogEpochs
		m.WatchdogLPMHz, m.WatchdogHPMHz = watchdogLPMHz, watchdogHPMHz
		m.TelemetrySec = cfg.TelemetryInterval.Seconds()
		m.Servers = cfg.Servers()
		m.LPServers = len(r.pools[workload.Low])
		m.HPServers = len(r.pools[workload.High])
		m.ProvisionedW = cfg.ProvisionedWatts()
		m.BrakeUtil = cfg.BrakeUtil
		m.BrakeReleaseUtil = cfg.BrakeReleaseUtil
		m.IdleServerW = cfg.IdleServerWatts()
		m.BusyServerW = cfg.BusyServerWatts()
		m.UncappedMHz = gpu.A100SXM80GB().MaxSMClockMHz
		m.Model = cfg.Model.Name
		m.DType = cfg.DType.String()
	})
	var err error
	if cfg.Serve == nil {
		r.be, err = newSlotBackend(r, svc)
	} else {
		r.be, err = newServeBackend(r)
	}
	if err != nil {
		return nil, err
	}
	r.initTSDB(o)
	return r, nil
}

// MustRow is NewRow for programmatically built configurations known to be
// valid (tests, examples, benchmarks); it panics on error.
func MustRow(eng *sim.Engine, cfg RowConfig, ctrl Controller) *Row {
	r, err := NewRow(eng, cfg, ctrl)
	if err != nil {
		panic(err)
	}
	return r
}

// Metrics returns the run's metrics (live; read after the run completes).
func (r *Row) Metrics() *Metrics { return r.metrics }

// Observer implements Actuator.
func (r *Row) Observer() *obs.Observer { return r.obs }

// InFlightCommands returns the number of issued OOB commands that have not
// yet landed or failed — the trace reconciliation remainder: issues =
// applies + releases + failures + in-flight.
func (r *Row) InFlightCommands() int {
	n := 0
	for _, nd := range r.nodes {
		if nd.cmdInFlight {
			n++
		}
	}
	return n
}

// PoolAppliedLocks returns the SM-clock locks actually applied on each
// server of the pool (0 = unlocked), for inspection and tests.
func (r *Row) PoolAppliedLocks(p workload.Priority) []float64 {
	out := make([]float64, 0, len(r.pools[p]))
	for _, n := range r.pools[p] {
		out = append(out, n.appliedLock)
	}
	return out
}

// SetPoolLock implements Actuator. The pool's desired lock is recorded
// immediately, and traced when it changes, even for an empty pool; the OOB
// pipeline applies it per server with latency and possible silent
// failures, re-issuing on subsequent telemetry ticks.
func (r *Row) SetPoolLock(p workload.Priority, mhz float64) {
	if r.desired[p] == mhz {
		return
	}
	r.desired[p] = mhz
	r.tracer.Emit(obs.Event{
		At: r.eng.Now(), Kind: obs.KindCapRequest,
		Server: -1, Pool: int8(p), MHz: mhz,
	})
}

// setArrivalPlan installs the run's offered-load curve, which both pools'
// admission gates read.
func (r *Row) setArrivalPlan(p trace.RatePlan) {
	r.arrivalPlan = p
	r.gate = [2]admitGate{}
}

// applyLock is the one writer of a node's applied lock: it locks the
// node's clocks and resets its pool's admission gate, which reads every
// lock of the pool.
func (r *Row) applyLock(n *node, mhz float64) {
	n.appliedLock = mhz
	n.dev.LockClock(mhz)
	r.gate[n.pri] = admitGate{}
}

// Run simulates the row serving the arrival plan until its horizon plus a
// drain margin, and returns the metrics.
func (r *Row) Run(arrivals trace.RatePlan) *Metrics {
	r.setArrivalPlan(arrivals)
	arrRNG := r.eng.Rand("arrivals")

	// Online arrival generation: one pending event at a time, all through
	// one handler.
	var onArrival sim.Handler
	scheduleNext := func(after sim.Time) {
		if next, ok := arrivals.NextAfter(after, arrRNG); ok {
			r.eng.At(next, onArrival)
		}
	}
	onArrival = func(now sim.Time) {
		r.arrive(now)
		scheduleNext(now)
	}
	scheduleNext(0)
	return r.run(arrivals.Horizon())
}

// run is the tail Run and RunRequests share once their arrivals are
// scheduled: it arms the row manager, simulates to the horizon, then
// drains in-flight work so tail latencies are recorded, and settles the
// run's metrics and telemetry.
func (r *Row) run(horizon time.Duration) *Metrics {
	r.startTelemetry()
	r.eng.RunUntil(horizon)
	r.telemetryTick.Stop()
	r.telemetrySub.Stop()
	r.scheduleTSDBFinish()
	r.eng.RunUntil(horizon + 30*time.Minute)
	r.metrics.Faults = r.inj.Counts()
	r.be.finish(r.eng.Now())
	r.finishTSDB()
	return r.metrics
}

// startTelemetry arms the row manager: sub-interval power accumulation
// (the row manager reports interval means, not instantaneous values, which
// is what smooths sub-second prompt spikes out of row readings) and the
// 2 s telemetry/control tick, both engine repeating timers. At an instant
// they share, the tick fires first: the sub-sample re-armed more recently.
func (r *Row) startTelemetry() {
	subStep := r.cfg.TelemetryInterval / 8
	if subStep <= 0 {
		subStep = r.cfg.TelemetryInterval
	}
	r.telemetrySub = r.eng.EveryFrom(r.eng.Now()+subStep, subStep, func(now sim.Time) {
		r.powerSum += r.instantUtilization(now)
		r.powerSamples++
	})
	r.telemetryTick = r.eng.EveryFrom(r.eng.Now()+r.cfg.TelemetryInterval, r.cfg.TelemetryInterval, func(now sim.Time) {
		r.updateServerFaults(now)
		var util float64
		if r.powerSamples > 0 {
			util = r.powerSum / float64(r.powerSamples)
		} else {
			util = r.instantUtilization(now)
		}
		r.powerSum, r.powerSamples = 0, 0
		r.metrics.Util.Values = append(r.metrics.Util.Values, util)
		r.utilGauge.Set(util)
		r.utilHist.Observe(util, r.cfg.TelemetryInterval)
		// The brake and the recorded utilization see the physical power: the
		// UPS measures at the breaker, below every faultable sensor.
		r.brakeLogic(util)
		r.controllerTick(now, util)
		r.recordTickDecision(now)
		r.pumpCommands(now)
		r.be.tick(now)
		r.tsdbTick(now, util)
	})
	r.metrics.Util.Step = r.cfg.TelemetryInterval
	r.metrics.Util.Start = r.eng.Now() + r.cfg.TelemetryInterval
}

// controllerTick runs the control half of a telemetry epoch: it passes the
// row reading through the fault model, notes the epoch's input flags in
// tickDec (which recordTickDecision logs), traces controller crashes and
// restarts, and hands the epoch to the control loop. Without an injector
// every reading is delivered as measured.
func (r *Row) controllerTick(now sim.Time, trueUtil float64) {
	d := &r.tickDec
	*d = obs.Decision{At: now, TrueUtil: trueUtil}
	switch {
	case r.inj == nil:
		d.Delivered, d.Reading = true, trueUtil
	case r.inj.ControllerDown(now, r.cfg.TelemetryInterval):
		if !r.ctrlDown {
			r.ctrlDown = true
			r.tracer.Emit(obs.Event{At: now, Kind: obs.KindCtrlCrash, Server: -1, Pool: obs.PoolNone})
		}
		d.Down = true
	default:
		if r.ctrlDown {
			// The controller restarts cold: a real process restart loses
			// every engaged threshold and hysteresis timer.
			r.ctrlDown = false
			r.tracer.Emit(obs.Event{At: now, Kind: obs.KindCtrlRestart, Server: -1, Pool: obs.PoolNone})
			d.Reset = true
		}
		if r.inj.MissedTick() {
			d.Missed = true
		} else if reading, ok := r.inj.Telemetry(now, trueUtil, r.lastReading, r.haveReading); ok {
			d.Delivered, d.Reading = true, reading
			r.lastReading, r.haveReading = reading, true
		} else {
			d.Lost = true
		}
	}
	r.loop.Epoch(now, d, r)
}

// recordTickDecision snapshots the completed telemetry epoch into the
// decision log: the input flags controllerTick captured, the row state that
// frames them (brake, watchdog, fail-safe, policy stage), the pool locks
// the policy asked for, and the per-pool busy/power load. One nil branch
// when recording is off; pure reads when on, so enabling the recorder
// cannot perturb the run.
func (r *Row) recordTickDecision(now sim.Time) {
	if r.dec == nil {
		return
	}
	d := r.tickDec
	d.Braked = r.braked
	d.BrakePending = r.brakePending
	d.Watchdog = r.loop.WatchdogEngaged()
	if r.ctrlFailSafe != nil {
		d.FailSafe = r.ctrlFailSafe.FailSafeEngaged()
	}
	if r.ctrlStage != nil {
		d.Stage = int8(r.ctrlStage.Stage())
	}
	d.LPDesiredMHz = r.desired[workload.Low]
	d.HPDesiredMHz = r.desired[workload.High]
	for _, n := range r.nodes {
		if n.dead {
			continue
		}
		w, busy := r.nodePower(n, now)
		if n.pri == workload.Low {
			if busy {
				d.LPBusy++
			}
			d.LPWatts += w
		} else {
			if busy {
				d.HPBusy++
			}
			d.HPWatts += w
		}
	}
	r.dec.RecordTick(d)
}

// deadman is the control loop's watchdog hook. With no policy reacting to
// power, an engaged watchdog self-caps both pools at the conservative
// clocks rather than leaving oversubscribed servers uncapped until the
// brake fires; on release the resumed controller reasserts its own locks
// on the same tick (every policy re-emits them unconditionally).
func (r *Row) deadman(now sim.Time, engage bool, silent int) {
	if engage {
		r.note(obs.Event{
			At: now, Kind: obs.KindWatchdogEngage, Server: -1, Pool: obs.PoolNone,
			Value: float64(silent),
		})
		r.SetPoolLock(workload.Low, watchdogLPMHz)
		r.SetPoolLock(workload.High, watchdogHPMHz)
	} else {
		r.tracer.Emit(obs.Event{At: now, Kind: obs.KindWatchdogRelease, Server: -1, Pool: obs.PoolNone})
	}
	r.be.watchdog(now, engage)
}

// noteDrain records a node entering or leaving graceful drain. reason
// names what initiated it ("maintenance" for an injected drain window,
// "watchdog" for the serving backend's deadman drain).
func (r *Row) noteDrain(n *node, now sim.Time, on bool, reason string) {
	kind := obs.KindUndrain
	if on {
		kind = obs.KindDrain
	}
	r.note(obs.Event{
		At: now, Kind: kind, Server: int32(n.idx), Pool: int8(n.pri),
		Reason: reason,
	})
}

// updateServerFaults applies node death and revival transitions at epoch
// granularity. A dying node loses its in-flight work (counted as dropped)
// and draws no power; a reviving node comes back cold — clocks unlocked,
// brake state resynced — and is re-capped through the normal OOB pipeline.
func (r *Row) updateServerFaults(now sim.Time) {
	if r.inj == nil {
		return
	}
	for _, n := range r.nodes {
		dead := r.inj.ServerDead(n.idx, now)
		if dead == n.dead {
			continue
		}
		r.powerChanged(n)
		if dead {
			n.dead = true
			r.be.kill(n, now)
			r.note(obs.Event{At: now, Kind: obs.KindNodeDeath, Server: int32(n.idx), Pool: int8(n.pri)})
		} else {
			n.dead = false
			r.applyLock(n, 0)
			n.dev.SetBrake(r.braked)
			n.retryTarget, n.retryCount, n.retryWait, n.retryDead = 0, 0, 0, false
			r.tracer.Emit(obs.Event{At: now, Kind: obs.KindNodeRevive, Server: int32(n.idx), Pool: int8(n.pri)})
		}
	}
	for _, n := range r.nodes {
		draining := r.inj.ServerDraining(n.idx, now)
		if draining == n.draining {
			continue
		}
		n.draining = draining
		r.noteDrain(n, now, draining, "maintenance")
	}
}

// arrive samples one request for the pool chosen proportionally to its
// capacity and accepts it.
func (r *Row) arrive(now sim.Time) {
	pri := workload.High
	if r.dispatchRNG.Float64() < r.lowArrivalProb {
		pri = workload.Low
	}
	r.accept(now, r.sampler.SampleWithPriority(now, pri))
}

// accept records one arrival and hands it to the backend. Run's sampled
// arrivals and RunRequests' replayed trace both enter here.
func (r *Row) accept(now sim.Time, req workload.Request) {
	r.note(obs.Event{At: now, Kind: obs.KindArrive, Server: -1, Pool: int8(req.Priority)})
	r.be.dispatch(now, req)
}

// note is the single record point of every counted row fact: it counts
// the event in its Metrics field and registry counter, then traces it, so
// the three cannot disagree. Kinds no aggregate counts only trace.
// DESIGN.md §6's event table lists what each kind counts where.
func (r *Row) note(ev obs.Event) {
	m, pri := r.metrics, workload.Priority(ev.Pool)
	switch ev.Kind {
	case obs.KindArrive:
		m.Arrived[pri]++
		r.arrivedCtr[pri].Inc()
	case obs.KindComplete:
		m.Completed[pri]++
		m.LatencySec[pri] = append(m.LatencySec[pri], ev.Value)
		r.completedCtr[pri].Inc()
	case obs.KindDrop:
		m.Dropped[pri]++
		r.droppedCtr[pri].Inc()
		if ev.Reason == "retry-exhausted" {
			m.ServeRetryExhausted++
		}
	case obs.KindBrakeTrigger:
		m.BrakeEvents++
		r.brakeCtr.Inc()
	case obs.KindOOBIssue:
		m.LockCommands++
		r.lockCmdCtr.Inc()
	case obs.KindOOBFail:
		// A target abandoned after its retry budget is not a failed command.
		if ev.Reason == "retry-exhausted" {
			m.OOBRetriesExhausted++
		} else {
			m.FailedCommands++
			r.failedCmdCtr.Inc()
		}
	case obs.KindOOBStale:
		m.StaleOOBDrops++
	case obs.KindWatchdogEngage:
		m.WatchdogEngagements++
	case obs.KindNodeDeath:
		m.NodeDeaths++
	case obs.KindRetry:
		m.ServeRetries++
	case obs.KindCircuitOpen:
		m.CircuitOpens++
	case obs.KindDrain:
		// The serve watchdog's drains are a row state, not node drains.
		if ev.Reason == "maintenance" {
			m.NodeDrains++
		}
	}
	r.tracer.Emit(ev)
}

// nodePower returns the node's current server power draw and whether it
// is executing work, from its cache while the backend's horizon holds. A
// dead node draws nothing until it revives.
func (r *Row) nodePower(n *node, now sim.Time) (float64, bool) {
	if now < n.powUntil {
		return n.powW, n.powBusy
	}
	if n.dead {
		n.powW, n.powBusy, n.powUntil = 0, false, math.MaxInt64
	} else {
		gpuW, busy, until := r.be.load(n, now)
		n.powW, n.powBusy, n.powUntil = n.srv.PowerFromGPUs(gpuW*n.gpuScale), busy, until
	}
	return n.powW, n.powBusy
}

// powerChanged drops the node's and the row's power caches. Every writer
// of what a node's draw depends on calls it: its liveness; in slot mode
// the request and phase it executes; in serve mode every Enqueue and
// Replan, the only calls from outside that start or re-time a replica's
// iteration. A lock or the brake reaches a node's draw only through
// backend.replan.
func (r *Row) powerChanged(n *node) {
	n.powUntil, r.utilUntil = 0, 0
}

// instantUtilization returns row power as a fraction of the provisioned
// budget at this instant, from its cache until the earliest node horizon.
// A recompute sums every node in order, so it is the same float64.
func (r *Row) instantUtilization(now sim.Time) float64 {
	if now < r.utilUntil {
		return r.util
	}
	var w float64
	until := sim.Time(math.MaxInt64)
	for _, n := range r.nodes {
		p, _ := r.nodePower(n, now)
		w += p
		until = min(until, n.powUntil)
	}
	r.util, r.utilUntil = w/r.metrics.Provisioned, until
	return r.util
}

// brakeLogic engages/releases the row's power brake (§6.2's safety net).
func (r *Row) brakeLogic(util float64) {
	switch {
	case !r.braked && !r.brakePending && util >= r.cfg.BrakeUtil:
		r.brakePending = true
		r.note(obs.Event{
			At: r.eng.Now(), Kind: obs.KindBrakeTrigger, Server: -1,
			Pool: obs.PoolNone, Value: util,
		})
		r.eng.After(r.cfg.BrakeLatency, func(now sim.Time) {
			r.brakePending = false
			r.braked = true
			r.brakeHeld = now + r.cfg.BrakeHold
			r.tracer.Emit(obs.Event{At: now, Kind: obs.KindBrakeEngage, Server: -1, Pool: obs.PoolNone})
			for _, n := range r.nodes {
				n.dev.SetBrake(true)
				r.be.replan(n, now)
			}
		})
	case r.braked && util < r.cfg.BrakeReleaseUtil && r.eng.Now() >= r.brakeHeld:
		r.braked = false
		r.tracer.Emit(obs.Event{
			At: r.eng.Now(), Kind: obs.KindBrakeRelease, Server: -1,
			Pool: obs.PoolNone, Value: util,
		})
		for _, n := range r.nodes {
			n.dev.SetBrake(false)
			r.be.replan(n, r.eng.Now())
		}
	}
}

// pumpCommands issues pending OOB commands: any node whose desired lock
// differs from the applied one and has no command in flight gets one. The
// command lands after the OOB latency (with ±20% jitter) and fails
// silently with the configured probability, to be re-issued on a later
// tick — the guardrail the paper says production deployment requires.
func (r *Row) pumpCommands(now sim.Time) {
	for _, n := range r.nodes {
		target := r.desired[n.pri]
		if n.dead || n.cmdInFlight || target == n.appliedLock {
			continue
		}
		// A new desired lock starts a fresh retry sequence.
		if target != n.retryTarget || n.retryCount == 0 {
			n.retryTarget = target
			n.retryCount = 0
			n.retryWait = 0
			n.retryDead = false
		}
		if n.retryDead || now < n.retryWait {
			continue
		}
		if n.retryCount > 0 {
			r.metrics.OOBRetries++
		}
		n.retryCount++
		n.cmdInFlight = true
		r.note(obs.Event{
			At: now, Kind: obs.KindOOBIssue,
			Server: int32(n.idx), Pool: int8(n.pri), MHz: target,
		})
		// A burst window dooms the command at issue time (it still consumes
		// the channel for its full flight, like §3.3's silent failures).
		doomed := r.inj.OOBBurstFailure(now)
		jitter := 0.8 + 0.4*r.oobRNG.Float64()
		delay := r.inj.OOBLatency(time.Duration(float64(r.cfg.OOBLatency) * jitter))
		node := n
		r.eng.After(delay, func(t sim.Time) {
			node.cmdInFlight = false
			// The baseline failure draw comes first unconditionally so the
			// oob stream's consumption is identical with injection off.
			reason := ""
			switch {
			case r.oobRNG.Float64() < r.cfg.OOBFailureProb:
				reason = "silent-failure"
			case doomed:
				reason = "burst-failure"
			case node.dead:
				reason = "node-dead"
			}
			if reason != "" {
				r.note(obs.Event{
					At: t, Kind: obs.KindOOBFail,
					Server: int32(node.idx), Pool: int8(node.pri), MHz: target,
					Reason: reason,
				})
				r.retryAccounting(node, target, t)
				return // silent failure; re-issued on a later tick
			}
			if desired := r.desired[node.pri]; r.cfg.DropStaleOOB && desired != target {
				// The desired lock changed while this command was in flight:
				// applying it would actuate a decision the policy already
				// revoked (possibly *uncapping* a row the policy wants
				// capped). Drop it; the pump re-issues the current target.
				r.note(obs.Event{
					At: t, Kind: obs.KindOOBStale,
					Server: int32(node.idx), Pool: int8(node.pri), MHz: target,
					Value: desired, Reason: "superseded",
				})
				return
			}
			r.applyLock(node, target)
			kind := obs.KindCapApply
			if target == 0 {
				kind = obs.KindCapRelease
			}
			r.tracer.Emit(obs.Event{
				At: t, Kind: kind,
				Server: int32(node.idx), Pool: int8(node.pri), MHz: target,
			})
			r.be.replan(node, t)
			r.be.admit(node.pri, t)
		})
	}
}

// retryAccounting applies the bounded-retry policy after a failed command:
// exponential backoff before the next issue and a hard budget after which
// the target is abandoned (the watchdog and brake still backstop safety).
// With both knobs at zero — the default — this is a no-op and failed
// commands re-issue on the next tick, the pre-hardening behaviour.
func (r *Row) retryAccounting(n *node, target float64, t sim.Time) {
	if n.retryTarget != target {
		return // the desired lock moved on; this sequence is obsolete
	}
	if r.cfg.OOBRetryBudget > 0 && n.retryCount >= r.cfg.OOBRetryBudget {
		n.retryDead = true
		r.note(obs.Event{
			At: t, Kind: obs.KindOOBFail,
			Server: int32(n.idx), Pool: int8(n.pri), MHz: target,
			Reason: "retry-exhausted",
		})
		return
	}
	if r.cfg.OOBRetryBackoff > 0 {
		n.retryWait = t + backoff(r.cfg.OOBRetryBackoff, n.retryCount)
	}
}

// backoff is the delay before retry number attempt (1 for the first):
// base doubling per attempt, capped at 64× base. OOB re-issues and serve
// failover both back off by it; it is a pure function of the attempt, so
// retry traffic draws no randomness.
func backoff(base time.Duration, attempt int) time.Duration {
	return base << min(attempt-1, 6)
}

// Package gpu models an NVIDIA A100-class datacenter GPU at the level of
// detail the paper's characterization needs: a roofline performance model
// (tensor-core math throughput vs. HBM bandwidth), a DVFS power model
// (dynamic power scales superlinearly with SM clock), and the three power
// management knobs the paper studies — in-band frequency locking, reactive
// power capping, and the out-of-band power brake.
//
// The model is analytical, not cycle-accurate. What must be faithful, and
// is validated by this package's tests, is the *shape* of power over time:
// compute-dense phases draw power at or transiently above TDP, memory-bound
// phases draw a stable ~60-75% of TDP, power capping clips peaks reactively
// (spikes shorter than the limiter's reaction window still overshoot,
// Figure 9), and frequency locking trades a superlinear amount of power for
// a sublinear amount of performance (Figure 10).
package gpu

import (
	"fmt"
	"math"
	"time"

	"polca/internal/llm"
)

// Spec describes a GPU SKU. All power figures are per GPU.
type Spec struct {
	Name string

	TDPWatts  float64 // board power limit the default cap sits at
	IdleWatts float64 // power drawn with clocks idling

	MaxSMClockMHz   float64 // boost clock (100% performance reference)
	BaseSMClockMHz  float64 // base clock (paper: 1275 MHz on A100)
	MinSMClockMHz   float64 // lowest lockable clock
	BrakeSMClockMHz float64 // clock forced by the OOB power brake (Table 5: 288 MHz)

	MemoryGB            float64
	MemBandwidthGBps    float64       // HBM bandwidth; independent of SM clock domain
	NVLinkGBps          float64       // per-GPU interconnect bandwidth
	TensorFP16TFLOPS    float64       // peak dense FP16 tensor-core throughput
	TensorFP8TFLOPS     float64       // peak dense FP8 throughput (0 = unsupported)
	FP32TFLOPS          float64       // peak non-tensor FP32 throughput
	TensorINT8TOPS      float64       // peak INT8 tensor throughput
	DVFSAlpha           float64       // dynamic power ∝ (f/fmax)^alpha (V tracks f)
	TensorWatts         float64       // dynamic power of fully-busy tensor pipes at fmax
	SMWatts             float64       // dynamic power of non-tensor SM activity at fmax
	ClockWatts          float64       // clock-tree/uncore dynamic power while any engine is busy
	MemWatts            float64       // dynamic power of fully-busy HBM interface
	CapReactionInterval time.Duration // reactive power-limiter response time
}

// A100SXM80GB returns the spec of the NVIDIA A100-SXM4-80GB used for the
// paper's inference characterization.
func A100SXM80GB() Spec {
	return Spec{
		Name:                "A100-SXM4-80GB",
		TDPWatts:            400,
		IdleWatts:           82,
		MaxSMClockMHz:       1410,
		BaseSMClockMHz:      1275,
		MinSMClockMHz:       210,
		BrakeSMClockMHz:     288,
		MemoryGB:            80,
		MemBandwidthGBps:    2039,
		NVLinkGBps:          600,
		TensorFP16TFLOPS:    312,
		FP32TFLOPS:          19.5,
		TensorINT8TOPS:      624,
		DVFSAlpha:           2.2,
		TensorWatts:         320,
		SMWatts:             120,
		ClockWatts:          60,
		MemWatts:            140,
		CapReactionInterval: 100 * time.Millisecond,
	}
}

// H100SXM80GB returns the spec of an NVIDIA H100-SXM5-80GB, the next
// generation the paper's discussion anticipates (DGX-H100: 8U, 10.2 kW,
// §6.7; FP8 transformer engine, §4.2). Numbers follow the public SXM5
// datasheet; power-split coefficients are scaled from the A100 model.
func H100SXM80GB() Spec {
	return Spec{
		Name:                "H100-SXM5-80GB",
		TDPWatts:            700,
		IdleWatts:           105,
		MaxSMClockMHz:       1980,
		BaseSMClockMHz:      1590,
		MinSMClockMHz:       210,
		BrakeSMClockMHz:     396,
		MemoryGB:            80,
		MemBandwidthGBps:    3350,
		NVLinkGBps:          900,
		TensorFP16TFLOPS:    989,
		TensorFP8TFLOPS:     1979,
		FP32TFLOPS:          67,
		TensorINT8TOPS:      1979,
		DVFSAlpha:           2.2,
		TensorWatts:         560,
		SMWatts:             190,
		ClockWatts:          100,
		MemWatts:            240,
		CapReactionInterval: 100 * time.Millisecond,
	}
}

// A100SXM40GB returns the spec of the NVIDIA A100-SXM4-40GB used for the
// paper's training characterization.
func A100SXM40GB() Spec {
	s := A100SXM80GB()
	s.Name = "A100-SXM4-40GB"
	s.MemoryGB = 40
	s.MemBandwidthGBps = 1555
	return s
}

// PeakFLOPS returns the peak math throughput (FLOP/s) for a datatype,
// before kernel efficiency. It takes a pointer so that building a phase's
// curve, once per timed phase, does not copy the spec.
func (s *Spec) PeakFLOPS(dt llm.DType) float64 {
	switch dt {
	case llm.FP16:
		return s.TensorFP16TFLOPS * 1e12
	case llm.INT8:
		return s.TensorINT8TOPS * 1e12
	case llm.FP8:
		if s.TensorFP8TFLOPS > 0 {
			return s.TensorFP8TFLOPS * 1e12
		}
		// Pre-Hopper GPUs run FP8 weights through FP16 pipes.
		return s.TensorFP16TFLOPS * 1e12
	case llm.FP32:
		return s.FP32TFLOPS * 1e12
	}
	return s.FP32TFLOPS * 1e12
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.TDPWatts <= 0 || s.IdleWatts <= 0 || s.IdleWatts >= s.TDPWatts:
		return fmt.Errorf("gpu: %s: bad power envelope", s.Name)
	case s.MaxSMClockMHz <= 0 || s.MinSMClockMHz <= 0 || s.MinSMClockMHz > s.MaxSMClockMHz:
		return fmt.Errorf("gpu: %s: bad clock range", s.Name)
	case s.BaseSMClockMHz < s.MinSMClockMHz || s.BaseSMClockMHz > s.MaxSMClockMHz:
		return fmt.Errorf("gpu: %s: base clock outside range", s.Name)
	case s.MemBandwidthGBps <= 0 || s.TensorFP16TFLOPS <= 0:
		return fmt.Errorf("gpu: %s: bad throughput", s.Name)
	case s.DVFSAlpha < 1:
		return fmt.Errorf("gpu: %s: DVFS alpha < 1", s.Name)
	}
	return nil
}

// Phase is a unit of GPU work with homogeneous behaviour: a prompt pass, a
// single token-sampling step (or a run of identical steps), a training
// forward/backward pass, or a synchronization interval. Costs are per GPU
// (the caller divides model-level costs by the parallel degree).
type Phase struct {
	Name  string
	DType llm.DType

	FLOPs    float64 // math work on this GPU
	MemBytes float64 // HBM traffic on this GPU
	// TensorFrac is the fraction of math work that runs on tensor cores
	// (the rest is scalar/vector SM work). It shapes the power split, not
	// the timing. Prompt/GEMM phases ≈ 1.
	TensorFrac float64
	// Efficiency derates the achieved math throughput below the datatype's
	// kernel efficiency (small kernels, low occupancy). Zero means 1.0.
	// Lower efficiency lengthens the phase and proportionally idles the
	// tensor pipes, lowering instantaneous power — this is why RoBERTa's
	// training iterations stay below TDP in Figure 4 while GPT-NeoX's
	// exceed it.
	Efficiency float64

	// CommSeconds is interconnect time that neither SM nor HBM can hide
	// (all-reduce latency, pipeline bubbles). It does not scale with clock.
	CommSeconds float64
	// OverheadSeconds is kernel-launch and small-op time measured at max
	// clock; it scales inversely with the SM clock ratio.
	OverheadSeconds float64
}

// Counters is the set of DCGM-style performance counters the paper profiles
// (Figure 7). Each is a 0..1 activity fraction except PowerWatts.
type Counters struct {
	PowerWatts     float64
	GPUUtil        float64 // any engine busy
	MemUtil        float64 // memory *capacity* in use fraction
	SMActivity     float64
	TensorActivity float64
	MemActivity    float64 // memory *bandwidth* activity
	PCIeTXMBps     float64
	PCIeRXMBps     float64
}

// Segment is a stretch of simulated execution with constant behaviour.
type Segment struct {
	Duration time.Duration
	Counters Counters
}

// Exec is the result of running a phase: a piecewise-constant power/counter
// timeline plus the total elapsed time.
type Exec struct {
	Segments []Segment
	Duration time.Duration
}

// Device is a stateful GPU with its management knobs. Device is not
// safe for concurrent use; in the simulator each device is owned by its
// server's event handlers. Devices of one spec share a table of solved
// throttle ratios, which is safe for concurrent use.
type Device struct {
	spec Spec

	lockedClockMHz float64 // 0 = unlocked (boost to max)
	powerCapWatts  float64
	brake          bool

	memUsedGB float64 // resident model weights+KV, for the MemUtil counter

	// Manufacturing variation (silicon lottery): multipliers on dynamic
	// power and achieved throughput, 1.0 by default. Large fleets show a
	// few percent of both (the paper cites characterizations of A100
	// variability).
	powerVar float64
	perfVar  float64

	// dvfsRatio and dvfsFactor memoise math.Pow(dvfsRatio, DVFSAlpha) for
	// the clock ceiling RunInto last timed a phase at. The ceiling moves
	// only with a lock or the brake, so consecutive phases share it.
	dvfsRatio, dvfsFactor float64

	// memo is the spec's table of solved throttle ratios (memo.go), found
	// at the device's first throttled phase.
	memo *throttleMemo
}

// NewDevice returns a Device with default settings: unlocked clocks and the
// power cap at TDP.
func NewDevice(spec Spec) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		spec: spec, powerCapWatts: spec.TDPWatts, powerVar: 1, perfVar: 1,
		dvfsRatio: 1, dvfsFactor: 1, // math.Pow(1, y) == 1
	}
}

// SetVariation sets the device's silicon-lottery multipliers: power scales
// dynamic power draw, perf scales achieved math throughput. Both are
// clamped to ±10% around nominal. Fleet models draw these per device to
// reproduce the per-server scatter of Figure 11.
func (d *Device) SetVariation(power, perf float64) {
	clamp := func(x float64) float64 {
		return math.Min(math.Max(x, 0.9), 1.1)
	}
	d.powerVar = clamp(power)
	d.perfVar = clamp(perf)
}

// Variation returns the device's power and performance multipliers.
func (d *Device) Variation() (power, perf float64) { return d.powerVar, d.perfVar }

// Spec returns the device's SKU description.
func (d *Device) Spec() Spec { return d.spec }

// LockClock locks the SM clock to mhz (clamped to the spec's range),
// emulating `nvidia-smi -lgc`. Passing 0 unlocks.
func (d *Device) LockClock(mhz float64) {
	if mhz == 0 {
		d.lockedClockMHz = 0
		return
	}
	d.lockedClockMHz = math.Min(math.Max(mhz, d.spec.MinSMClockMHz), d.spec.MaxSMClockMHz)
}

// LockedClock returns the locked SM clock in MHz, or 0 if unlocked.
func (d *Device) LockedClock() float64 { return d.lockedClockMHz }

// SetPowerCap sets the reactive power limit in watts, emulating
// `nvidia-smi -pl`. Values are clamped to [idle+10%, TDP].
func (d *Device) SetPowerCap(watts float64) {
	lo := d.spec.IdleWatts * 1.1
	d.powerCapWatts = math.Min(math.Max(watts, lo), d.spec.TDPWatts)
}

// PowerCap returns the current power cap in watts.
func (d *Device) PowerCap() float64 { return d.powerCapWatts }

// SetBrake engages or releases the OOB power brake, which forces the SM
// clock to the spec's brake clock regardless of other settings.
func (d *Device) SetBrake(on bool) { d.brake = on }

// Brake reports whether the power brake is engaged.
func (d *Device) Brake() bool { return d.brake }

// SetMemUsedGB records resident memory for the MemUtil counter.
func (d *Device) SetMemUsedGB(gb float64) {
	d.memUsedGB = math.Min(math.Max(gb, 0), d.spec.MemoryGB)
}

// clockCeilingMHz returns the highest SM clock currently allowed by the
// lock and brake settings (the power cap throttles reactively, below).
func (d *Device) clockCeilingMHz() float64 {
	c := d.spec.MaxSMClockMHz
	if d.lockedClockMHz > 0 {
		c = d.lockedClockMHz
	}
	if d.brake {
		c = math.Min(c, d.spec.BrakeSMClockMHz)
	}
	return c
}

// effFactor returns the phase's occupancy derate (1.0 when unset).
func (p Phase) effFactor() float64 {
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return 1
	}
	return p.Efficiency
}

// curve is one phase's timing and power on one device as functions of the
// SM clock ratio. Building it folds the ratio-independent terms once; at
// then evaluates the roofline and the power equation in one fixed
// floating-point order, which Run, PeakPower and the cap solver share, so
// the model exists once.
type curve struct {
	d     *Device
	p     *Phase
	flops float64 // peak math throughput × kernel efficiency × occupancy
	occ   float64 // occupancy derate (effFactor)
	tm    float64 // HBM time, independent of the SM clock
}

// curve returns the phase's power curve on d.
func (d *Device) curve(p *Phase) curve {
	occ := p.effFactor()
	return curve{
		d:     d,
		p:     p,
		flops: d.spec.PeakFLOPS(p.DType) * (p.DType.KernelEfficiency() * occ),
		occ:   occ,
		tm:    p.MemBytes / (d.spec.MemBandwidthGBps * 1e9),
	}
}

// at returns the phase's roofline duration in seconds and its counters when
// executed at clock ratio r.
func (c *curve) at(r float64) (float64, Counters) {
	return c.atDVFS(r, math.Pow(r, c.d.spec.DVFSAlpha))
}

// atDVFS is at with the DVFS factor math.Pow(r, DVFSAlpha) supplied by the
// caller, for callers that hold it already.
func (c *curve) atDVFS(r, dvfs float64) (float64, Counters) {
	d, p := c.d, c.p
	tc := 0.0
	if flops := c.flops * r * d.perfVar; flops > 0 {
		tc = p.FLOPs / flops
	}
	busy := max(tc, c.tm)
	overhead := p.OverheadSeconds / r
	total := busy + p.CommSeconds + overhead
	if total <= 0 {
		return total, d.idleCounters()
	}
	// tc is already inflated by low occupancy; the tensor pipes are only
	// occ-busy during it, so instantaneous power scales back down.
	tensorAct := tc * p.TensorFrac * c.occ / total
	smAct := (tc + overhead) / total
	memAct := c.tm / total
	clamp01 := func(x float64) float64 { return min(max(x, 0), 1) }
	tensorAct, smAct, memAct = clamp01(tensorAct), clamp01(smAct), clamp01(memAct)
	util := clamp01((busy + overhead) / total)

	dyn := dvfs * d.powerVar
	power := d.spec.IdleWatts +
		dyn*(d.spec.TensorWatts*tensorAct+d.spec.SMWatts*max(smAct-tensorAct, 0)+d.spec.ClockWatts*util) +
		d.spec.MemWatts*memAct*d.powerVar
	return total, Counters{
		PowerWatts:     power,
		GPUUtil:        util,
		MemUtil:        d.memUsedGB / d.spec.MemoryGB,
		SMActivity:     smAct,
		TensorActivity: tensorAct,
		MemActivity:    memAct,
		PCIeTXMBps:     150 * util,
		PCIeRXMBps:     180 * util,
	}
}

// power returns the phase's steady-state power draw at clock ratio r.
func (c *curve) power(r float64) float64 {
	_, ctr := c.at(r)
	return ctr.PowerWatts
}

// idleCounters returns the counter set for an idle device.
func (d *Device) idleCounters() Counters {
	return Counters{PowerWatts: d.spec.IdleWatts, MemUtil: d.memUsedGB / d.spec.MemoryGB}
}

// Idle returns an Exec representing d idling for the given duration.
func (d *Device) Idle(dur time.Duration) Exec {
	return Exec{
		Segments: []Segment{{Duration: dur, Counters: d.idleCounters()}},
		Duration: dur,
	}
}

// throttleGap is the margin outside a bracket [a, b] of the cap crossing
// beyond which throttleRatioFor decides a bisection midpoint without
// evaluating the power there. Power is non-decreasing in the clock ratio
// (dynamic power rises as r^alpha, alpha >= 1, faster than any activity
// fraction falls). Across 1e-12 of ratio at the crossing it rises by at
// least 50 ulps of the cap on 300,000 random phases, and by at least 7,600
// on BLOOM-176B prompts, against a few ulps of rounding in one
// evaluation, so the decision matches the evaluated comparison.
const throttleGap = 1e-12

// throttleSecantSteps bounds the secant search. A bracket it leaves open
// only costs the replay more evaluations, never a different answer.
const throttleSecantSteps = 6

// throttleRatioFor returns the largest clock ratio <= hi at which the
// phase's steady-state power respects limit, given pHi, its power at hi.
// The solution accounts for activity fractions changing as the clock drops
// (a memory-bound phase becomes no less memory-bound at lower clocks).
//
// The answer is defined by a 40-step bisection of [min ratio, hi]. The
// solver brackets the crossing with a few exact power evaluations, then
// replays that bisection, evaluating only the midpoints that fall within
// throttleGap of the bracket: it returns the bisection's float64 bit for
// bit in about a quarter of the evaluations.
func (d *Device) throttleRatioFor(c *curve, hi, pHi, limit float64) float64 {
	if pHi <= limit {
		return hi
	}
	lo := d.spec.MinSMClockMHz / d.spec.MaxSMClockMHz
	pLo := c.power(lo)
	if pLo > limit {
		return lo
	}
	a, b := c.bracket(lo, pLo, hi, pHi, limit)
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if mid > b+throttleGap || mid >= a-throttleGap && c.power(mid) > limit {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// bracket narrows [a, b], with P(a) <= limit < P(b), around the crossing
// P(r) = limit and returns the tightest such pair it evaluated. The first
// guess treats the dynamic power P - idle as a power law of the ratio
// through both ends; secant steps through the two newest points follow,
// each aimed a quarter gap past its estimate on the side of the wider
// bracket end, so that once the estimate is sharp the bracket closes from
// both sides.
func (c *curve) bracket(a, pa, b, pb, limit float64) (float64, float64) {
	idle := c.d.spec.IdleWatts
	x := a * math.Pow((limit-idle)/(pa-idle), math.Log(b/a)/math.Log((pb-idle)/(pa-idle)))
	if !(x > a && x < b) {
		x = a + (b-a)/2
	}
	p := c.power(x)
	// The first secant step pairs the guess with the end across the crossing.
	x0, p0 := a, pa
	if p <= limit {
		x0, p0 = b, pb
	}
	for i := 0; ; i++ {
		if p > limit {
			b = x
		} else {
			a = x
		}
		if b-a <= throttleGap || i == throttleSecantSteps {
			return a, b
		}
		next := x - (p-limit)*(x-x0)/(p-p0)
		if b-next > next-a {
			next += throttleGap / 4
		} else {
			next -= throttleGap / 4
		}
		if !(next > a && next < b) {
			next = a + (b-a)/2
		}
		x0, p0 = x, p
		x, p = next, c.power(next)
	}
}

// Run executes a phase under the device's current knob settings and returns
// its piecewise-constant power timeline.
//
// The reactive power limiter is modelled as in Figure 9: for the first
// CapReactionInterval of a phase the device runs at the clock ceiling, so
// instantaneous power may overshoot the cap; after the reaction interval
// the limiter settles the clock at the highest value that respects the cap
// (extending the phase's duration accordingly). Frequency locks and the
// power brake bound the clock from the start and never overshoot.
func (d *Device) Run(p Phase) Exec {
	var e Exec
	d.RunInto(&p, &e)
	return e
}

// RunInto is Run with a caller-owned phase and result: the previous
// contents of e are discarded and its Segments backing array is reused, so
// steady-state callers (the serving scheduler times millions of iterations)
// pay no allocation once the buffer has warmed up.
func (d *Device) RunInto(p *Phase, e *Exec) {
	maxRatio := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
	if maxRatio != d.dvfsRatio {
		d.dvfsRatio, d.dvfsFactor = maxRatio, math.Pow(maxRatio, d.spec.DVFSAlpha)
	}
	d.runInto(p, e, maxRatio, d.dvfsFactor, d.powerCapWatts)
}

// RunUncappedInto is RunInto with the clock lock, the brake and the power
// cap released: the phase runs at the maximum clock (ratio 1, where the
// DVFS factor is exactly 1) under the TDP limit. It is the counterfactual
// the serving scheduler attributes cap slowdown against. It reads and
// writes no knob, so it equals releasing the three knobs, calling RunInto
// and restoring them.
func (d *Device) RunUncappedInto(p *Phase, e *Exec) {
	d.runInto(p, e, 1, 1, d.spec.TDPWatts)
}

// runInto times the phase with its first segment at clock ratio maxRatio,
// whose DVFS factor math.Pow(maxRatio, DVFSAlpha) is dvfs, under the power
// limit in watts.
func (d *Device) runInto(p *Phase, e *Exec, maxRatio, dvfs, limit float64) {
	if p.FLOPs < 0 || p.MemBytes < 0 || p.CommSeconds < 0 || p.OverheadSeconds < 0 {
		panic(fmt.Sprintf("gpu: negative work in phase %q", p.Name))
	}
	e.Segments = e.Segments[:0]
	e.Duration = 0
	c := d.curve(p)
	fullTotal, full := c.atDVFS(maxRatio, dvfs)
	if fullTotal <= 0 {
		return
	}
	react := d.spec.CapReactionInterval.Seconds()
	// Within the limit, or a spike shorter than the limiter's reaction: one
	// segment at the clock ceiling.
	if full.PowerWatts <= limit+1e-9 || fullTotal <= react {
		dur := secToDur(fullTotal)
		e.Segments = append(e.Segments, Segment{Duration: dur, Counters: full})
		e.Duration = dur
		return
	}
	// Cap violated: overshoot segment, then throttled remainder.
	throttled := d.throttledRatio(&c, maxRatio, full.PowerWatts, limit)
	doneFrac := react / fullTotal // fraction of work done before throttling
	rest := p.Scale(1 - doneFrac)
	rc := d.curve(&rest)
	restTotal, restCtr := rc.at(throttled)
	e.Segments = append(e.Segments,
		Segment{Duration: secToDur(react), Counters: full},
		Segment{Duration: secToDur(restTotal), Counters: restCtr},
	)
	e.Duration = e.Segments[0].Duration + e.Segments[1].Duration
}

// Scale returns a copy of the phase with all work multiplied by frac. The
// cluster simulator uses it to re-plan the remainder of an in-flight phase
// when a management action changes the device's clocks mid-execution.
func (p Phase) Scale(frac float64) Phase {
	q := p
	q.FLOPs *= frac
	q.MemBytes *= frac
	q.CommSeconds *= frac
	q.OverheadSeconds *= frac
	return q
}

// secToDur converts seconds to a time.Duration, saturating at MaxInt64.
func secToDur(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	ns := s * 1e9
	if ns > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// PeakPower returns the instantaneous power the device would draw running
// the phase at its current clock ceiling, ignoring the power cap (i.e. the
// height of the initial spike).
func (d *Device) PeakPower(p Phase) float64 {
	c := d.curve(&p)
	_, ctr := c.at(d.clockCeilingMHz() / d.spec.MaxSMClockMHz)
	return ctr.PowerWatts
}

// MeanPower returns the time-weighted mean power of an Exec.
func (e Exec) MeanPower() float64 {
	if e.Duration <= 0 {
		return 0
	}
	var wsum float64
	for _, s := range e.Segments {
		wsum += s.Counters.PowerWatts * s.Duration.Seconds()
	}
	return wsum / e.Duration.Seconds()
}

// PeakPower returns the maximum segment power of an Exec.
func (e Exec) PeakPower() float64 {
	peak := 0.0
	for _, s := range e.Segments {
		if s.Counters.PowerWatts > peak {
			peak = s.Counters.PowerWatts
		}
	}
	return peak
}

// PowerAt returns the instantaneous power at the given offset into the
// execution.
func (e Exec) PowerAt(offset time.Duration) float64 {
	w, _ := e.PowerUntil(offset)
	return w
}

// PowerUntil returns PowerAt(offset) and the first offset at which
// PowerAt may return something else: the end of the segment in effect, or
// math.MaxInt64 in the last segment, which PowerAt extends past the end,
// and in an empty exec.
func (e Exec) PowerUntil(offset time.Duration) (watts float64, until time.Duration) {
	i, until := e.segmentAt(offset)
	if i < 0 {
		return 0, until
	}
	return e.Segments[i].Counters.PowerWatts, until
}

// segmentAt returns the index of the segment in effect at the given offset
// (the last at or past the end; -1 for an empty exec) and the offset at
// which that segment ends (math.MaxInt64 for the last, and for an empty
// exec).
func (e Exec) segmentAt(offset time.Duration) (int, time.Duration) {
	var at time.Duration
	last := len(e.Segments) - 1
	for i := 0; i < last; i++ {
		at += e.Segments[i].Duration
		if offset < at {
			return i, at
		}
	}
	return last, math.MaxInt64
}

// Energy returns the energy of an Exec in joules.
func (e Exec) Energy() float64 {
	var j float64
	for _, s := range e.Segments {
		j += s.Counters.PowerWatts * s.Duration.Seconds()
	}
	return j
}

// EnergyUpTo returns the energy of the execution's first offset of runtime
// in joules (the whole-exec energy at or past the end). The serving
// backend uses it to settle the consumed share of an iteration that is
// re-planned mid-flight or cancelled by a node death.
func (e Exec) EnergyUpTo(offset time.Duration) float64 {
	if offset >= e.Duration {
		return e.Energy()
	}
	var j float64
	var at time.Duration
	for _, s := range e.Segments {
		if offset <= at {
			break
		}
		d := s.Duration
		if at+d > offset {
			d = offset - at
		}
		j += s.Counters.PowerWatts * d.Seconds()
		at += s.Duration
	}
	return j
}

package gpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"polca/internal/llm"
)

// computePhase is a BLOOM-like prompt: heavily tensor-bound.
func computePhase() Phase {
	return Phase{
		Name:       "prompt",
		DType:      llm.FP16,
		FLOPs:      3e14, // ~1s of tensor work on an A100
		MemBytes:   5e10,
		TensorFrac: 1,
	}
}

// memoryPhase is a token-sampling run: memory-bandwidth-bound.
func memoryPhase() Phase {
	return Phase{
		Name:            "token",
		DType:           llm.FP16,
		FLOPs:           5e12,
		MemBytes:        2e12, // ~1s of HBM streaming
		TensorFrac:      1,
		OverheadSeconds: 0.15,
	}
}

func TestSpecsValidate(t *testing.T) {
	for _, s := range []Spec{A100SXM80GB(), A100SXM40GB()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := A100SXM80GB()
	bad.IdleWatts = 500
	if bad.Validate() == nil {
		t.Error("idle above TDP should fail validation")
	}
	bad = A100SXM80GB()
	bad.BaseSMClockMHz = 10
	if bad.Validate() == nil {
		t.Error("base clock below min should fail validation")
	}
}

func TestPeakFLOPSOrdering(t *testing.T) {
	s := A100SXM80GB()
	if !(s.PeakFLOPS(llm.INT8) > s.PeakFLOPS(llm.FP16) && s.PeakFLOPS(llm.FP16) > s.PeakFLOPS(llm.FP32)) {
		t.Error("throughput ordering INT8 > FP16 > FP32 violated")
	}
}

func TestComputePhaseReachesTDP(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	p := d.PeakPower(computePhase())
	tdp := d.Spec().TDPWatts
	if p < tdp {
		t.Errorf("compute-dense peak %v below TDP %v (paper: prompt spikes reach/exceed TDP)", p, tdp)
	}
	if p > 1.25*tdp {
		t.Errorf("peak %v unrealistically above TDP", p)
	}
}

func TestMemoryPhaseDrawsLowerStablePower(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	p := d.PeakPower(memoryPhase())
	tdp := d.Spec().TDPWatts
	if p < 0.5*tdp || p > 0.85*tdp {
		t.Errorf("token-phase power %.0f W = %.2f TDP, want 0.5-0.85 TDP (Figure 6)", p, p/tdp)
	}
}

func TestIdlePower(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	e := d.Idle(time.Second)
	if e.MeanPower() != d.Spec().IdleWatts {
		t.Errorf("idle power = %v", e.MeanPower())
	}
	if e.Duration != time.Second {
		t.Errorf("idle duration = %v", e.Duration)
	}
}

func TestFrequencyLockReducesPowerSuperlinearly(t *testing.T) {
	// Figure 10: peak power reduction substantially exceeds performance
	// reduction for a mixed workload when locking frequency.
	spec := A100SXM80GB()
	d := NewDevice(spec)
	base := d.Run(computePhase())
	d.LockClock(1110)
	locked := d.Run(computePhase())
	powerDrop := 1 - locked.PeakPower()/base.PeakPower()
	perfDrop := 1 - base.Duration.Seconds()/locked.Duration.Seconds()
	if powerDrop <= 0 {
		t.Fatal("locking the clock did not reduce power")
	}
	if powerDrop <= perfDrop {
		t.Errorf("power drop %.2f should exceed perf drop %.2f for compute phase at this DVFS point", powerDrop, perfDrop)
	}
}

func TestMemoryBoundPhaseInsensitiveToClock(t *testing.T) {
	// Token phases are memory-bound: a ~7% clock reduction must cost <2%
	// performance (Figure 10c) while still saving dynamic power.
	d := NewDevice(A100SXM80GB())
	base := d.Run(memoryPhase())
	d.LockClock(1305)
	locked := d.Run(memoryPhase())
	slowdown := locked.Duration.Seconds()/base.Duration.Seconds() - 1
	if slowdown > 0.02 {
		t.Errorf("memory-bound slowdown at 1305 MHz = %.3f, want < 0.02", slowdown)
	}
	if locked.MeanPower() >= base.MeanPower() {
		t.Error("lower clock should save some power even when memory bound")
	}
}

func TestClockLockClamping(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.LockClock(50)
	if got := d.LockedClock(); got != d.Spec().MinSMClockMHz {
		t.Errorf("lock clamped to %v, want min %v", got, d.Spec().MinSMClockMHz)
	}
	d.LockClock(9999)
	if got := d.LockedClock(); got != d.Spec().MaxSMClockMHz {
		t.Errorf("lock clamped to %v, want max %v", got, d.Spec().MaxSMClockMHz)
	}
	d.LockClock(0)
	if d.LockedClock() != 0 {
		t.Error("unlock failed")
	}
}

func TestPowerCapClipsSteadyState(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.SetPowerCap(325)
	e := d.Run(computePhase())
	if len(e.Segments) != 2 {
		t.Fatalf("capped compute phase should have overshoot+throttled segments, got %d", len(e.Segments))
	}
	if over := e.Segments[0].Counters.PowerWatts; over <= 325 {
		t.Errorf("overshoot segment %v W should exceed the cap (reactive limiter, Figure 9)", over)
	}
	if e.Segments[0].Duration != d.Spec().CapReactionInterval {
		t.Errorf("overshoot lasts %v, want reaction interval %v", e.Segments[0].Duration, d.Spec().CapReactionInterval)
	}
	if steady := e.Segments[1].Counters.PowerWatts; steady > 325+1 {
		t.Errorf("throttled segment %v W exceeds cap", steady)
	}
	// Capping must cost performance on a compute-bound phase.
	uncapped := NewDevice(A100SXM80GB()).Run(computePhase())
	if e.Duration <= uncapped.Duration {
		t.Error("capped run should be slower than uncapped")
	}
}

func TestShortSpikeEscapesReactiveCap(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.SetPowerCap(300)
	spike := computePhase()
	spike.FLOPs = 1e13 // ~35 ms, shorter than the 100 ms reaction window
	e := d.Run(spike)
	if len(e.Segments) != 1 {
		t.Fatalf("short spike should not be split, got %d segments", len(e.Segments))
	}
	if e.Segments[0].Counters.PowerWatts <= 300 {
		t.Error("short spike should overshoot the reactive cap (Figure 9)")
	}
}

func TestFrequencyLockNeverOvershoots(t *testing.T) {
	// Unlike capping, a frequency lock bounds power from the first instant.
	d := NewDevice(A100SXM80GB())
	d.LockClock(1110)
	e := d.Run(computePhase())
	capRef := NewDevice(A100SXM80GB()).PeakPower(computePhase())
	if e.PeakPower() >= capRef {
		t.Error("locked run should start below unlocked peak")
	}
	for _, s := range e.Segments {
		if s.Counters.PowerWatts > e.Segments[0].Counters.PowerWatts+1e-9 {
			t.Error("locked run power should be flat-or-falling")
		}
	}
}

func TestPowerBrake(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.SetBrake(true)
	e := d.Run(computePhase())
	nob := NewDevice(A100SXM80GB()).Run(computePhase())
	if e.PeakPower() > 0.45*d.Spec().TDPWatts {
		t.Errorf("braked power %v W too high; brake should reclaim substantial power", e.PeakPower())
	}
	if e.Duration < 3*nob.Duration {
		t.Errorf("brake at 288 MHz should slow compute drastically: %v vs %v", e.Duration, nob.Duration)
	}
	d.SetBrake(false)
	if d.Brake() {
		t.Error("brake release failed")
	}
}

func TestCapClamping(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.SetPowerCap(10)
	if d.PowerCap() <= d.Spec().IdleWatts {
		t.Errorf("cap clamped to %v, should stay above idle", d.PowerCap())
	}
	d.SetPowerCap(9999)
	if d.PowerCap() != d.Spec().TDPWatts {
		t.Errorf("cap clamped to %v, want TDP", d.PowerCap())
	}
}

func TestCountersCorrelateWithPhases(t *testing.T) {
	// Figure 7: prompt-phase power rides on SM/tensor activity; token-phase
	// on memory activity.
	d := NewDevice(A100SXM80GB())
	prompt := d.Run(computePhase()).Segments[0].Counters
	token := d.Run(memoryPhase()).Segments[0].Counters
	if prompt.TensorActivity < 0.8 {
		t.Errorf("prompt tensor activity = %v, want high", prompt.TensorActivity)
	}
	if prompt.MemActivity > 0.3 {
		t.Errorf("prompt memory activity = %v, want low", prompt.MemActivity)
	}
	if token.MemActivity < 0.7 {
		t.Errorf("token memory activity = %v, want high", token.MemActivity)
	}
	if token.TensorActivity > 0.3 {
		t.Errorf("token tensor activity = %v, want low", token.TensorActivity)
	}
}

func TestMemUtilCounter(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	d.SetMemUsedGB(40)
	if got := d.Idle(time.Second).Segments[0].Counters.MemUtil; got != 0.5 {
		t.Errorf("MemUtil = %v, want 0.5", got)
	}
	d.SetMemUsedGB(500)
	if got := d.Idle(time.Second).Segments[0].Counters.MemUtil; got != 1 {
		t.Errorf("MemUtil clamped = %v, want 1", got)
	}
	d.SetMemUsedGB(-3)
	if got := d.Idle(time.Second).Segments[0].Counters.MemUtil; got != 0 {
		t.Errorf("MemUtil clamped = %v, want 0", got)
	}
}

func TestExecAggregates(t *testing.T) {
	e := Exec{
		Segments: []Segment{
			{Duration: time.Second, Counters: Counters{PowerWatts: 100}},
			{Duration: 3 * time.Second, Counters: Counters{PowerWatts: 200}},
		},
		Duration: 4 * time.Second,
	}
	if got := e.MeanPower(); got != 175 {
		t.Errorf("MeanPower = %v, want 175", got)
	}
	if got := e.PeakPower(); got != 200 {
		t.Errorf("PeakPower = %v, want 200", got)
	}
	if got := e.Energy(); got != 700 {
		t.Errorf("Energy = %v, want 700", got)
	}
	if (Exec{}).MeanPower() != 0 {
		t.Error("empty exec mean should be 0")
	}
}

// TestExecPowerUntil pins the horizon the row's power cache relies on: the
// power in effect at an offset holds until the segment's end, a boundary
// belongs to the next segment, and the last segment holds forever.
func TestExecPowerUntil(t *testing.T) {
	const forever = time.Duration(math.MaxInt64)
	e := Exec{
		Segments: []Segment{
			{Duration: time.Second, Counters: Counters{PowerWatts: 100}},
			{Duration: 0, Counters: Counters{PowerWatts: 999}}, // never in effect
			{Duration: 2 * time.Second, Counters: Counters{PowerWatts: 200}},
			{Duration: time.Second, Counters: Counters{PowerWatts: 300}},
		},
		Duration: 4 * time.Second,
	}
	for _, c := range []struct {
		name   string
		e      Exec
		offset time.Duration
		watts  float64
		until  time.Duration
	}{
		{"offset 0", e, 0, 100, time.Second},
		{"inside the first segment", e, 500 * time.Millisecond, 100, time.Second},
		{"first boundary", e, time.Second, 200, 3 * time.Second},
		{"inside a segment", e, 2 * time.Second, 200, 3 * time.Second},
		{"last boundary", e, 3 * time.Second, 300, forever},
		{"at the end", e, 4 * time.Second, 300, forever},
		{"past the end", e, time.Hour, 300, forever},
		{"one segment", Exec{Segments: e.Segments[:1], Duration: time.Second}, 0, 100, forever},
		{"empty exec", Exec{}, 0, 0, forever},
		{"empty exec past the end", Exec{}, time.Second, 0, forever},
	} {
		watts, until := c.e.PowerUntil(c.offset)
		if watts != c.watts || until != c.until {
			t.Errorf("%s: PowerUntil(%v) = %v W until %v, want %v W until %v",
				c.name, c.offset, watts, until, c.watts, c.until)
		}
		if p := c.e.PowerAt(c.offset); p != watts {
			t.Errorf("%s: PowerAt(%v) = %v, PowerUntil says %v", c.name, c.offset, p, watts)
		}
	}
}

func TestRunNegativeWorkPanics(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	defer func() {
		if recover() == nil {
			t.Error("negative FLOPs should panic")
		}
	}()
	d.Run(Phase{FLOPs: -1})
}

func TestEmptyPhase(t *testing.T) {
	d := NewDevice(A100SXM80GB())
	e := d.Run(Phase{Name: "noop", DType: llm.FP16})
	if e.Duration != 0 || len(e.Segments) != 0 {
		t.Errorf("empty phase should be instantaneous: %+v", e)
	}
}

// Property: duration is non-increasing in clock and power is non-decreasing
// in clock, for arbitrary phases.
func TestClockMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		p := Phase{
			Name:            "rand",
			DType:           llm.FP16,
			FLOPs:           rng.Float64() * 1e14,
			MemBytes:        rng.Float64() * 1e12,
			TensorFrac:      rng.Float64(),
			CommSeconds:     rng.Float64() * 0.1,
			OverheadSeconds: rng.Float64() * 0.1,
		}
		if p.FLOPs == 0 && p.MemBytes == 0 {
			return true
		}
		clocks := []float64{600, 900, 1110, 1275, 1410}
		var lastDur = math.Inf(1)
		var lastPeak float64
		for _, c := range clocks {
			d := NewDevice(A100SXM80GB())
			d.LockClock(c)
			e := d.Run(p)
			if e.Duration.Seconds() > lastDur+1e-9 {
				return false
			}
			if e.PeakPower() < lastPeak-1e-9 {
				return false
			}
			lastDur = e.Duration.Seconds()
			lastPeak = e.PeakPower()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: energy is conserved across capping — work done is identical, so
// a capped run must not consume more energy than an uncapped one (lower
// voltage/frequency is strictly more efficient in this model).
func TestCappingSavesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(seed int64) bool {
		p := Phase{
			Name:       "rand",
			DType:      llm.FP16,
			FLOPs:      1e13 + rng.Float64()*3e14,
			MemBytes:   rng.Float64() * 1e11,
			TensorFrac: 1,
		}
		un := NewDevice(A100SXM80GB()).Run(p)
		capped := NewDevice(A100SXM80GB())
		capped.SetPowerCap(300 + rng.Float64()*80)
		ce := capped.Run(p)
		return ce.Energy() <= un.Energy()*1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBaseClockIs1275(t *testing.T) {
	// POLCA's T1 action locks low-priority GPUs to the A100 base frequency.
	if A100SXM80GB().BaseSMClockMHz != 1275 {
		t.Error("A100 base clock must be 1275 MHz (paper §6.3)")
	}
	if A100SXM80GB().BrakeSMClockMHz != 288 {
		t.Error("A100 power brake clock must be 288 MHz (Table 5)")
	}
}

func TestDeviceVariation(t *testing.T) {
	hot := NewDevice(A100SXM80GB())
	hot.SetVariation(1.08, 0.95)
	if pw, pf := hot.Variation(); pw != 1.08 || pf != 0.95 {
		t.Errorf("Variation = %v/%v", pw, pf)
	}
	nominal := NewDevice(A100SXM80GB())
	p := computePhase()
	he := hot.Run(p)
	ne := nominal.Run(p)
	if he.PeakPower() <= ne.PeakPower() {
		t.Error("hot silicon should draw more power")
	}
	if he.Duration <= ne.Duration {
		t.Error("slow silicon should take longer")
	}
	// Clamping to ±10%.
	hot.SetVariation(2.0, 0.1)
	if pw, pf := hot.Variation(); pw != 1.1 || pf != 0.9 {
		t.Errorf("clamped Variation = %v/%v, want 1.1/0.9", pw, pf)
	}
	// Idle power is unaffected by variation (leakage modelled nominal).
	if hot.Idle(time.Second).MeanPower() != nominal.Idle(time.Second).MeanPower() {
		t.Error("variation should not change idle power")
	}
}

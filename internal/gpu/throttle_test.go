package gpu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"polca/internal/llm"
)

// bisectRatio is the reference cap solve: the largest clock ratio <= hi
// whose power respects the cap, by a 40-step bisection of [min ratio, hi]
// that evaluates every midpoint. throttleRatioFor must return its float64
// bit for bit.
func bisectRatio(d *Device, c *curve, hi float64) float64 {
	lo := d.spec.MinSMClockMHz / d.spec.MaxSMClockMHz
	if c.power(hi) <= d.powerCapWatts {
		return hi
	}
	if c.power(lo) > d.powerCapWatts {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if c.power(mid) > d.powerCapWatts {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// throttleCase builds a device and a phase from draws u, each in [0, 1):
// any of the three specs, with or without silicon variation, under an
// unlocked, locked or braked clock ceiling and a cap anywhere from idle+10%
// to TDP, running a phase of any datatype that is general, zero-FLOP,
// zero-byte or comm/overhead-only, possibly a Scaled remainder. The cap is
// drawn last, mostly from the power range the phase spans.
func throttleCase(u func() float64) (*Device, Phase) {
	pick := func(n int) int { return min(int(u()*float64(n)), n-1) }
	specs := [...]func() Spec{A100SXM80GB, A100SXM40GB, H100SXM80GB}
	d := NewDevice(specs[pick(len(specs))]())
	if u() < 0.5 {
		d.SetVariation(0.9+0.2*u(), 0.9+0.2*u())
	}
	s := d.Spec()
	switch pick(3) {
	case 1:
		d.LockClock(s.MinSMClockMHz + u()*(s.MaxSMClockMHz-s.MinSMClockMHz))
	case 2:
		if u() < 0.5 {
			d.LockClock(s.MinSMClockMHz + u()*(s.MaxSMClockMHz-s.MinSMClockMHz))
		}
		d.SetBrake(true)
	}
	dtypes := [...]llm.DType{llm.FP16, llm.INT8, llm.FP8, llm.FP32}
	p := Phase{
		Name:       "case",
		DType:      dtypes[pick(len(dtypes))],
		TensorFrac: u(),
		Efficiency: 1.3*u() - 0.1, // <= 0 and > 1 both mean 1
	}
	exp10 := func(lo, hi float64) float64 { return math.Pow(10, lo+u()*(hi-lo)) }
	shape := pick(4)
	if shape == 0 || shape == 2 {
		p.FLOPs = exp10(8, 15.5)
	}
	if shape == 0 || shape == 1 {
		p.MemBytes = exp10(6, 12.5)
	}
	if shape == 3 || u() < 0.5 {
		p.CommSeconds = exp10(-7, -0.5)
	}
	if shape == 3 || u() < 0.5 {
		p.OverheadSeconds = exp10(-7, -0.5)
	}
	if u() < 0.3 {
		p = p.Scale(u())
	}
	// Most caps fall where the phase's power crosses them inside the clock
	// range, the rest anywhere in the settable range.
	lo, hi := s.IdleWatts*1.1, s.TDPWatts
	if u() < 0.75 {
		c := d.curve(&p)
		lo = max(lo, c.power(s.MinSMClockMHz/s.MaxSMClockMHz))
		hi = min(hi, c.power(d.clockCeilingMHz()/s.MaxSMClockMHz))
	}
	d.SetPowerCap(lo + u()*(hi-lo))
	return d, p
}

// checkThrottle compares the fast solve with the reference bisection for
// one case at the device's clock ceiling, and reports whether the case
// reached the solver's bracket (the cap crossing lies inside the range).
func checkThrottle(t *testing.T, d *Device, p *Phase) bool {
	t.Helper()
	hi := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
	c := d.curve(p)
	pHi := c.power(hi)
	got := d.throttleRatioFor(&c, hi, pHi, d.powerCapWatts)
	want := bisectRatio(d, &c, hi)
	if got != want {
		t.Fatalf("throttleRatioFor = %v (%#x), bisection %v (%#x)\nspec %s cap %v lock %v brake %v var %v/%v\nphase %+v",
			got, math.Float64bits(got), want, math.Float64bits(want),
			d.spec.Name, d.powerCapWatts, d.lockedClockMHz, d.brake, d.powerVar, d.perfVar, *p)
	}
	lo := d.spec.MinSMClockMHz / d.spec.MaxSMClockMHz
	return pHi > d.powerCapWatts && c.power(lo) <= d.powerCapWatts
}

// TestThrottleRatioMatchesBisection checks that the fast cap solve returns
// the reference bisection's ratio exactly, over a million seeded cases.
func TestThrottleRatioMatchesBisection(t *testing.T) {
	const cases = 1_000_000
	rng := rand.New(rand.NewSource(14))
	solved := 0
	for i := 0; i < cases; i++ {
		d, p := throttleCase(rng.Float64)
		if checkThrottle(t, d, &p) {
			solved++
		}
	}
	// The generator must keep exercising the bracket and replay, not just
	// the two early returns.
	if solved < cases/2 {
		t.Errorf("only %d of %d cases crossed the cap inside the clock range", solved, cases)
	}
}

// FuzzThrottleRatio checks the fast cap solve against the reference
// bisection on cases drawn from the fuzzer's bytes, eight per draw.
func FuzzThrottleRatio(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x80\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 8*24)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u := func() float64 {
			if len(data) < 8 {
				return 0
			}
			v := binary.LittleEndian.Uint64(data)
			data = data[8:]
			return float64(v>>11) / (1 << 53)
		}
		d, p := throttleCase(u)
		checkThrottle(t, d, &p)
	})
}

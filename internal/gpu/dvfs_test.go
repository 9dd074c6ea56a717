package gpu

import (
	"math"
	"math/rand"
	"testing"
)

// sameExec fails the test unless got and want have equal durations and
// equal segments, every counter compared with ==.
func sameExec(t *testing.T, what string, got, want *Exec) {
	t.Helper()
	if got.Duration != want.Duration || len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: %v in %d segments, want %v in %d", what,
			got.Duration, len(got.Segments), want.Duration, len(want.Segments))
	}
	for i := range want.Segments {
		if got.Segments[i] != want.Segments[i] {
			t.Fatalf("%s: segment %d = %+v, want %+v", what, i, got.Segments[i], want.Segments[i])
		}
	}
}

// TestRunUncappedMatchesReleasedKnobs checks RunUncappedInto against
// releasing the clock lock, the brake and the power cap, calling RunInto
// and restoring them, on seeded phases under every knob setting, with and
// without silicon variation. The knobs must read the same afterwards.
func TestRunUncappedMatchesReleasedKnobs(t *testing.T) {
	const cases = 200_000
	rng := rand.New(rand.NewSource(20))
	var got, want Exec
	var locked, braked, throttled int
	for i := 0; i < cases; i++ {
		d, p := throttleCase(rng.Float64)
		d.SetMemUsedGB(rng.Float64() * d.spec.MemoryGB)
		lock, brake, pcap := d.LockedClock(), d.Brake(), d.PowerCap()
		pv, fv := d.Variation()
		memoR, memoF := d.dvfsRatio, d.dvfsFactor
		d.RunUncappedInto(&p, &got)
		if d.LockedClock() != lock || d.Brake() != brake || d.PowerCap() != pcap {
			t.Fatalf("case %d: knobs moved: lock %v→%v brake %v→%v cap %v→%v",
				i, lock, d.LockedClock(), brake, d.Brake(), pcap, d.PowerCap())
		}
		if pv2, fv2 := d.Variation(); pv2 != pv || fv2 != fv {
			t.Fatalf("case %d: variation moved", i)
		}
		if d.dvfsRatio != memoR || d.dvfsFactor != memoF {
			t.Fatalf("case %d: the uncapped run touched the ceiling's DVFS memo", i)
		}
		if lock != 0 {
			locked++
		}
		if brake {
			braked++
		}
		d.LockClock(0)
		d.SetBrake(false)
		d.SetPowerCap(d.spec.TDPWatts)
		d.RunInto(&p, &want)
		d.LockClock(lock)
		d.SetBrake(brake)
		d.SetPowerCap(pcap)
		sameExec(t, "uncapped run", &got, &want)
		if len(want.Segments) == 2 {
			throttled++
		}
	}
	// Every case is capped; the cases must keep covering locked and braked
	// devices, and phases that overshoot TDP even at the released clock.
	if locked < cases/4 || braked < cases/4 || throttled < cases/100 {
		t.Errorf("of %d cases %d locked, %d braked, %d throttled at TDP", cases, locked, braked, throttled)
	}
}

// TestDVFSMemoMatchesFreshDevice drives devices through seeded sequences
// of knob changes and phases, and checks every RunInto against a fresh
// NewDevice set to the same knobs, whose memo has seen nothing, and the
// memoised factor against math.Pow at the ceiling's ratio. The clocks
// are drawn from a few values so that the memo both hits at ratios other
// than 1 and misses after every ceiling move; RunUncappedInto runs in
// between and must not disturb it.
func TestDVFSMemoMatchesFreshDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := [...]func() Spec{A100SXM80GB, A100SXM40GB, H100SXM80GB}
	var got, want, scratch Exec
	var hits, misses int // hits at ratios below 1
	for seq := 0; seq < 2000; seq++ {
		spec := specs[rng.Intn(len(specs))]()
		clocks := [...]float64{0, spec.BaseSMClockMHz, 1110, spec.MinSMClockMHz + rng.Float64()*(spec.MaxSMClockMHz-spec.MinSMClockMHz)}
		d := NewDevice(spec)
		for step := 0; step < 40; step++ {
			switch rng.Intn(6) {
			case 0:
				d.LockClock(clocks[rng.Intn(len(clocks))])
			case 1:
				d.SetBrake(rng.Intn(3) == 0)
			case 2:
				d.SetPowerCap(spec.IdleWatts + rng.Float64()*spec.TDPWatts)
			case 3:
				d.SetVariation(0.9+0.2*rng.Float64(), 0.9+0.2*rng.Float64())
			case 4:
				d.SetMemUsedGB(rng.Float64() * spec.MemoryGB)
			}
			_, p := throttleCase(rng.Float64)
			if rng.Intn(4) == 0 {
				d.RunUncappedInto(&p, &scratch)
			}
			ratio := d.clockCeilingMHz() / spec.MaxSMClockMHz
			switch {
			case ratio != d.dvfsRatio:
				misses++
			case ratio < 1:
				hits++
			}
			d.RunInto(&p, &got)
			if pw := math.Pow(ratio, spec.DVFSAlpha); d.dvfsRatio != ratio || d.dvfsFactor != pw {
				t.Fatalf("memo holds Pow(%v) = %v, want Pow(%v) = %v", d.dvfsRatio, d.dvfsFactor, ratio, pw)
			}

			fresh := NewDevice(spec)
			fresh.LockClock(d.LockedClock())
			fresh.SetBrake(d.Brake())
			fresh.SetPowerCap(d.PowerCap())
			fresh.SetVariation(d.Variation())
			fresh.SetMemUsedGB(d.memUsedGB)
			fresh.RunInto(&p, &want)
			sameExec(t, "memoised run", &got, &want)
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("memo hits %d, misses %d: the sequences must exercise both", hits, misses)
	}
}

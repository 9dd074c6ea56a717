package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"polca/internal/llm"
)

// directRunInto is runInto with the throttled ratio solved by
// throttleRatioFor every time, never read from the spec's table: the
// reference the memoised runs must equal. uncapped selects the
// RunUncappedInto counterfactual.
func directRunInto(d *Device, p *Phase, e *Exec, uncapped bool) {
	maxRatio := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
	dvfs, limit := math.Pow(maxRatio, d.spec.DVFSAlpha), d.powerCapWatts
	if uncapped {
		maxRatio, dvfs, limit = 1, 1, d.spec.TDPWatts
	}
	e.Segments = e.Segments[:0]
	e.Duration = 0
	c := d.curve(p)
	fullTotal, full := c.atDVFS(maxRatio, dvfs)
	if fullTotal <= 0 {
		return
	}
	react := d.spec.CapReactionInterval.Seconds()
	if full.PowerWatts <= limit+1e-9 || fullTotal <= react {
		dur := secToDur(fullTotal)
		e.Segments = append(e.Segments, Segment{Duration: dur, Counters: full})
		e.Duration = dur
		return
	}
	throttled := d.throttleRatioFor(&c, maxRatio, full.PowerWatts, limit)
	rest := p.Scale(1 - react/fullTotal)
	rc := d.curve(&rest)
	restTotal, restCtr := rc.at(throttled)
	e.Segments = append(e.Segments,
		Segment{Duration: secToDur(react), Counters: full},
		Segment{Duration: secToDur(restTotal), Counters: restCtr},
	)
	e.Duration = e.Segments[0].Duration + e.Segments[1].Duration
}

// execDiff describes the first difference between two executions, or
// returns "" when every duration and counter is ==.
func execDiff(got, want *Exec) string {
	if got.Duration != want.Duration || len(got.Segments) != len(want.Segments) {
		return fmt.Sprintf("%v in %d segments, want %v in %d",
			got.Duration, len(got.Segments), want.Duration, len(want.Segments))
	}
	for i := range want.Segments {
		if got.Segments[i] != want.Segments[i] {
			return fmt.Sprintf("segment %d = %+v, want %+v", i, got.Segments[i], want.Segments[i])
		}
	}
	return ""
}

// hotA100 is an A100-SXM4-80GB under its own name whose tensor pipes draw
// 5% more: every key a phase makes on it equals the key it makes on the
// catalog part, and only the spec tells the two solves apart.
func hotA100() Spec {
	s := A100SXM80GB()
	s.TensorWatts *= 1.05
	return s
}

// pick returns an index below n from a draw u in [0, 1).
func pick(u func() float64, n int) int { return min(int(u()*float64(n)), n-1) }

// memoMove makes a recurrence of a case's phase that differs in one
// respect. It returns false when the move does not apply to the case.
type memoMove struct {
	name string
	move func(u func() float64, d *Device, p Phase) (*Device, Phase, bool)
}

// sameOccFLOPS returns, for a phase of dtype dt at occupancy occ on an
// A100, the FP16 or FP8 occupancy that gives the same folded peak FLOPS:
// an A100 runs FP8 on its FP16 pipes at a kernel efficiency of 0.9
// against FP16's 0.95, so only the occupancy in the key differs.
func sameOccFLOPS(dt llm.DType, occ float64) (llm.DType, float64, bool) {
	other := llm.FP8
	if dt == llm.FP8 {
		other = llm.FP16
	} else if dt != llm.FP16 {
		return 0, 0, false
	}
	target := dt.KernelEfficiency() * occ
	o := target / other.KernelEfficiency()
	for _, cand := range [...]float64{o, math.Nextafter(o, 0), math.Nextafter(o, 2)} {
		if cand > 0 && cand <= 1 && cand != occ && other.KernelEfficiency()*cand == target {
			return other, cand, true
		}
	}
	return 0, 0, false
}

// memoMoves perturb a case in every way the memo's key must tell apart:
// another spec, another variation, another lock, brake or cap, each key
// field changed alone (the folded FLOPS through the dtype and the
// occupancy through an FP16/FP8 pair), and one key field moved by one
// ulp.
var memoMoves = []memoMove{
	{"spec", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		var others []Spec
		for _, s := range [...]Spec{A100SXM80GB(), A100SXM40GB(), H100SXM80GB(), hotA100()} {
			if s != d.spec {
				others = append(others, s)
			}
		}
		d2 := NewDevice(others[pick(u, len(others))])
		d2.powerVar, d2.perfVar = d.powerVar, d.perfVar
		d2.LockClock(d.lockedClockMHz)
		d2.SetBrake(d.brake)
		d2.SetPowerCap(d.powerCapWatts)
		return d2, p, true
	}},
	{"power variation", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		d2.SetVariation(0.9+0.2*u(), d.perfVar)
		return &d2, p, true
	}},
	{"perf variation", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		d2.SetVariation(d.powerVar, 0.9+0.2*u())
		return &d2, p, true
	}},
	{"lock", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		s := d.spec
		d2.LockClock(s.MinSMClockMHz + u()*(s.MaxSMClockMHz-s.MinSMClockMHz))
		return &d2, p, true
	}},
	{"brake", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		d2.SetBrake(!d.brake)
		return &d2, p, true
	}},
	{"cap", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		lo := d.spec.IdleWatts * 1.1
		d2.SetPowerCap(lo + u()*(d.spec.TDPWatts-lo))
		return &d2, p, true
	}},
	{"dtype", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		dtypes := [...]llm.DType{llm.FP16, llm.INT8, llm.FP8, llm.FP32}
		dt := dtypes[pick(u, len(dtypes))]
		if dt == p.DType {
			return d, p, false
		}
		p.DType = dt
		return d, p, true
	}},
	{"occupancy", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		if d.spec.TensorFP8TFLOPS != 0 {
			return nil, p, false
		}
		dt, occ, ok := sameOccFLOPS(p.DType, p.effFactor())
		p.DType, p.Efficiency = dt, occ
		return d, p, ok
	}},
	{"flops", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		p.FLOPs *= 0.5 + u()
		return d, p, p.FLOPs != 0
	}},
	{"bytes", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		p.MemBytes *= 0.5 + u()
		return d, p, p.MemBytes != 0
	}},
	{"tensor fraction", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		p.TensorFrac = u()
		return d, p, true
	}},
	{"comm", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		p.CommSeconds *= 0.5 + u()
		return d, p, p.CommSeconds != 0
	}},
	{"overhead", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		p.OverheadSeconds *= 0.5 + u()
		return d, p, p.OverheadSeconds != 0
	}},
	{"one ulp", func(u func() float64, d *Device, p Phase) (*Device, Phase, bool) {
		d2 := *d
		to := 0.0
		if u() < 0.5 {
			to = math.Inf(1)
		}
		ulp := func(x *float64) { *x = math.Nextafter(*x, to) }
		switch pick(u, 10) {
		case 0:
			ulp(&p.FLOPs)
		case 1:
			ulp(&p.MemBytes)
		case 2:
			ulp(&p.TensorFrac)
		case 3:
			ulp(&p.CommSeconds)
		case 4:
			ulp(&p.OverheadSeconds)
		case 5:
			ulp(&p.Efficiency)
		case 6:
			ulp(&d2.powerVar)
		case 7:
			ulp(&d2.perfVar)
		case 8:
			ulp(&d2.powerCapWatts)
		case 9:
			if d2.lockedClockMHz == 0 {
				d2.lockedClockMHz, to = d.spec.MaxSMClockMHz, 0
			}
			ulp(&d2.lockedClockMHz)
		}
		return &d2, p, true
	}},
}

// TestThrottleMemoMatchesDirectSolve draws seeded throttleCase phases and
// runs each through RunInto and RunUncappedInto. A phase whose capped run
// reaches the cap solve then runs again unchanged and once per memoMove.
// Every execution is compared segment by segment, with ==, against
// directRunInto, which solves every throttled ratio afresh. After a
// phase's first capped run its solve must be in the table, and on the
// first phases the test plants a NaN in place of the stored ratio and
// requires RunInto to return it, so that the memo is seen answering.
func TestThrottleMemoMatchesDirectSolve(t *testing.T) {
	const throttledCases, planted = 10_000, 1_000
	rng := rand.New(rand.NewSource(21))
	var got, want Exec
	check := func(i int, what string, d *Device, p *Phase) {
		t.Helper()
		for _, uncapped := range [...]bool{false, true} {
			if uncapped {
				d.RunUncappedInto(p, &got)
			} else {
				d.RunInto(p, &got)
			}
			directRunInto(d, p, &want, uncapped)
			if diff := execDiff(&got, &want); diff != "" {
				t.Fatalf("case %d, %s (uncapped %v): %s\nspec %s cap %v lock %v brake %v var %v/%v\nphase %+v",
					i, what, uncapped, diff, d.spec.Name, d.powerCapWatts, d.lockedClockMHz,
					d.brake, d.powerVar, d.perfVar, *p)
			}
		}
	}
	moved := make([]int, len(memoMoves))
	throttled, i := 0, 0
	for ; throttled < throttledCases; i++ {
		d, p := throttleCase(rng.Float64)
		check(i, "first run", d, &p)
		if d.RunInto(&p, &got); len(got.Segments) != 2 {
			continue
		}
		throttled++
		hi := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
		c := d.curve(&p)
		k := d.throttleKey(&c, hi, d.powerCapWatts)
		set := k.set()
		r, ok := d.memo.get(set, &k)
		if want := d.throttleRatioFor(&c, hi, c.power(hi), d.powerCapWatts); !ok || r != want {
			t.Fatalf("case %d: table holds %v (found %v), solve %v", i, r, ok, want)
		}
		if throttled <= planted {
			d.memo.plant(set, &k, math.NaN())
			d.RunInto(&p, &got)
			d.memo.plant(set, &k, r)
			if w := got.Segments[1].Counters.PowerWatts; !math.IsNaN(w) {
				t.Fatalf("case %d: RunInto did not read the table (throttled power %v with a NaN ratio stored)", i, w)
			}
		}
		check(i, "recurrence", d, &p)
		for j, m := range memoMoves {
			if d2, p2, ok := m.move(rng.Float64, d, p); ok {
				moved[j]++
				check(i, m.name, d2, &p2)
			}
		}
	}
	t.Logf("%d cases, %d throttled; moves applied %v", i, throttled, moved)
	for j, n := range moved {
		if n < throttledCases/10 {
			t.Errorf("move %q applied to only %d of %d throttled cases", memoMoves[j].name, n, throttledCases)
		}
	}
}

// plant overwrites the ratio stored under k, which must be in set i.
func (m *throttleMemo) plant(i int, k *throttleKey, ratio float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.at(i, false)
	for j := range s {
		if s[j].key == *k {
			s[j].ratio = ratio
			return
		}
	}
	panic("plant: key not in its set")
}

// TestThrottleMemoConcurrentRuns runs one set of throttled phases on
// several goroutines at once, each in its own order and on its own copies
// of the devices, so that solves, stores and hits of the same keys in the
// shared tables overlap. Each result must equal directRunInto's. Run it
// under -race.
func TestThrottleMemoConcurrentRuns(t *testing.T) {
	const cases, workers, passes = 2_000, 4, 3
	type runCase struct {
		d    Device
		p    Phase
		want Exec
	}
	rng := rand.New(rand.NewSource(22))
	all := make([]runCase, 0, cases)
	for len(all) < cases {
		d, p := throttleCase(rng.Float64)
		var want Exec
		if directRunInto(d, &p, &want, false); len(want.Segments) == 2 {
			all = append(all, runCase{d: *d, p: p, want: want})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		order := rng.Perm(cases)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got Exec
			for pass := 0; pass < passes; pass++ {
				for _, i := range order {
					c := &all[i]
					d := c.d
					d.RunInto(&c.p, &got)
					if diff := execDiff(&got, &c.want); diff != "" {
						t.Errorf("case %d, pass %d: %s", i, pass, diff)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

var throttleSink float64

// BenchmarkThrottleSolve times the cap solve itself on a seeded ring of
// 1,024 phases whose cap crossing lies inside the clock range. It calls
// throttleRatioFor directly, so the memo never answers; BenchmarkGPUPhase
// repeats one phase and so times a memo hit.
func BenchmarkThrottleSolve(b *testing.B) {
	const ringSize = 1024
	type solve struct {
		d       *Device
		p       Phase
		c       curve
		hi, pHi float64
	}
	rng := rand.New(rand.NewSource(23))
	ring := make([]solve, 0, ringSize)
	for len(ring) < ringSize {
		d, p := throttleCase(rng.Float64)
		hi := d.clockCeilingMHz() / d.spec.MaxSMClockMHz
		c := d.curve(&p)
		lo := d.spec.MinSMClockMHz / d.spec.MaxSMClockMHz
		if pHi := c.power(hi); pHi > d.powerCapWatts && c.power(lo) <= d.powerCapWatts {
			ring = append(ring, solve{d: d, p: p, hi: hi, pHi: pHi})
		}
	}
	for i := range ring {
		ring[i].c = ring[i].d.curve(&ring[i].p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		s := &ring[i%ringSize]
		sum += s.d.throttleRatioFor(&s.c, s.hi, s.pHi, s.d.powerCapWatts)
	}
	throttleSink = sum
}

package polca_test

import (
	"math/rand"
	"testing"
	"time"

	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// table5 is the dual-threshold state machine of Table 5 written out by
// hand, the reference POLCA's rung table is checked against. T2's
// high-priority action fires only if utilization is still at T2 on a later
// tick than the low-priority one: the arm survives ticks inside the
// hysteresis band and clears when the low-priority action engages again.
type table5 struct {
	cfg                         polca.Config
	t1, t2LP, t2HP, t2HPArmable bool
}

func (p *table5) step(util float64, emit func(string)) (lp, hp float64) {
	c := p.cfg
	switch {
	case util >= c.T2 && !p.t2LP:
		p.t2LP = true
		p.t2HPArmable = false
		emit("t2.lp.engage")
	case util < c.T2-c.UncapMargin && p.t2LP:
		p.t2LP = false
		emit("t2.lp.release")
		if p.t2HP {
			p.t2HP = false
			emit("t2.hp.release")
		}
	}
	if p.t2LP && util >= c.T2 {
		if p.t2HPArmable && !p.t2HP {
			p.t2HP = true
			emit("t2.hp.engage")
		}
		p.t2HPArmable = true
	}
	switch {
	case util >= c.T1 && !p.t1:
		p.t1 = true
		emit("t1.engage")
	case util < c.T1-c.UncapMargin && p.t1:
		p.t1 = false
		emit("t1.release")
	}
	if p.t1 {
		lp = c.LPBaseMHz
	}
	if p.t2LP {
		lp = c.LPDeepMHz
	}
	if p.t2HP {
		hp = c.HPCapMHz
	}
	return lp, hp
}

func (p *table5) stage() int {
	switch {
	case p.t2HP:
		return 3
	case p.t2LP:
		return 2
	case p.t1:
		return 1
	}
	return 0
}

func (p *table5) reset() { *p = table5{cfg: p.cfg} }

// singleThreshold is the hand-written 1-Thresh baseline: one trigger that
// locks the low-priority pool, or both, straight to the deep clock.
type singleThreshold struct {
	threshold, margin, lockMHz float64
	all, engaged               bool
}

func (s *singleThreshold) step(util float64, emit func(string)) (lp, hp float64) {
	switch {
	case util >= s.threshold && !s.engaged:
		s.engaged = true
		emit("engage")
	case util < s.threshold-s.margin && s.engaged:
		s.engaged = false
		emit("release")
	}
	if s.engaged {
		lp = s.lockMHz
		if s.all {
			hp = s.lockMHz
		}
	}
	return lp, hp
}

func (s *singleThreshold) stage() int {
	if s.engaged {
		return 1
	}
	return 0
}

func (s *singleThreshold) reset() { s.engaged = false }

type oracle interface {
	step(util float64, emit func(string)) (lp, hp float64)
	stage() int
	reset()
}

// table5Rungs is Table 5 spelled as a rung table by hand, for checking
// NewLadder against New.
func table5Rungs(c polca.Config) []polca.Rung {
	return []polca.Rung{
		{Name: "t1", Trigger: c.T1, Margin: c.UncapMargin, LowMHz: c.LPBaseMHz},
		{Name: "t2.lp", Trigger: c.T2, Margin: c.UncapMargin, LowMHz: c.LPDeepMHz},
		{Name: "t2.hp", Trigger: c.T2, Margin: c.UncapMargin, HighMHz: c.HPCapMHz, Delay: 1},
	}
}

// pair drives one rung-table policy and its oracle in lock step.
type pair struct {
	name   string
	policy *polca.Policy
	act    *fakeActuator
	ref    oracle
	want   []string
}

func newPair(name string, p *polca.Policy, ref oracle) *pair {
	act := newFake()
	act.obs = &obs.Observer{Tracer: obs.NewTracer()}
	return &pair{name: name, policy: p, act: act, ref: ref}
}

// pairs builds POLCA from cfg both ways, each against the Table 5 oracle,
// and the two 1-Thresh baselines against theirs.
func pairs(t testing.TB, cfg polca.Config) []*pair {
	ladder, err := polca.NewLadder("table5", table5Rungs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return []*pair{
		newPair("New", polca.New(cfg), &table5{cfg: cfg}),
		newPair("NewLadder", ladder, &table5{cfg: cfg}),
		newPair("1-Thresh-Low-Pri", polca.NewSingleThresholdLowPri(),
			&singleThreshold{threshold: 0.89, margin: 0.05, lockMHz: 1110}),
		newPair("1-Thresh-All", polca.NewSingleThresholdAll(),
			&singleThreshold{threshold: 0.89, margin: 0.05, lockMHz: 1110, all: true}),
	}
}

// step feeds one reading to both sides and reports the first difference in
// per-pool locks, stage or the tick's ordered threshold-event reasons.
func (p *pair) step(t testing.TB, i int, util float64) {
	p.policy.OnTelemetry(sim.Time(i)*2*time.Second, util, p.act)
	p.want = p.want[:0]
	lp, hp := p.ref.step(util, func(r string) { p.want = append(p.want, r) })
	got := reasons(p.act.obs.Tracer)
	p.act.obs.Tracer.Reset()
	if p.act.locks[workload.Low] != lp || p.act.locks[workload.High] != hp {
		t.Fatalf("%s tick %d util %v: locks LP/HP %v/%v, oracle %v/%v",
			p.name, i, util, p.act.locks[workload.Low], p.act.locks[workload.High], lp, hp)
	}
	if s := p.policy.Stage(); s != p.ref.stage() {
		t.Fatalf("%s tick %d util %v: stage %d, oracle %d", p.name, i, util, s, p.ref.stage())
	}
	if len(got) != len(p.want) {
		t.Fatalf("%s tick %d util %v: events %v, oracle %v", p.name, i, util, got, p.want)
	}
	for k := range got {
		if got[k] != p.want[k] {
			t.Fatalf("%s tick %d util %v: events %v, oracle %v", p.name, i, util, got, p.want)
		}
	}
}

func (p *pair) reset() {
	p.policy.Reset()
	p.ref.reset()
}

// bandJourney puts a tick inside T2's hysteresis band between two hot
// ones: Table 5 caps high priority on the fourth tick.
var bandJourney = []float64{0.70, 0.90, 0.87, 0.90}

// TestRungTablesMatchOracles walks the default configuration's utilization
// around T1, T2 and their release points for 100k ticks, with occasional
// cold restarts, and checks every rung-table policy against its
// hand-written reference on every tick.
func TestRungTablesMatchOracles(t *testing.T) {
	cfg := polca.DefaultConfig()
	ps := pairs(t, cfg)
	m := cfg.UncapMargin
	anchors := []float64{cfg.T1, cfg.T1 - m, cfg.T2, cfg.T2 - m}
	rng := rand.New(rand.NewSource(1))
	u := 0.0
	for i := 0; i < 100_000; i++ {
		switch r := rng.Intn(1000); {
		case i < len(bandJourney):
			u = bandJourney[i]
		case r < 2:
			for _, p := range ps {
				p.reset()
			}
		case r < 60:
			u = anchors[rng.Intn(len(anchors))] // exactly on a boundary
		case r < 160:
			u = anchors[rng.Intn(len(anchors))] + 0.01*(2*rng.Float64()-1)
		case r < 170:
			u = 0.4 + 0.7*rng.Float64()
		default:
			u += 0.015 * rng.NormFloat64()
		}
		for _, p := range ps {
			p.step(t, i, u)
		}
		if i == len(bandJourney)-1 && ps[1].act.locks[workload.High] != cfg.HPCapMHz {
			t.Fatalf("band journey %v left high priority at %v MHz, want %v",
				bandJourney, ps[1].act.locks[workload.High], cfg.HPCapMHz)
		}
	}
}

// FuzzPolicyMatchesTable5 draws a valid Config and up to 64 ticks of
// utilization whose bytes each pick T1, T2 or a release point and an offset
// of up to ±8 points from it (0xff restarts the controllers cold), and
// checks the rung tables against the hand-written state machines tick by
// tick. TestRungTablesMatchOracles covers long walks; short ones keep the
// fuzzer's input minimization cheap.
func FuzzPolicyMatchesTable5(f *testing.F) {
	f.Add(uint8(128), uint8(40), uint8(50), uint8(10), []byte{0x20, 0xa0, 0x9f, 0xa0}) // hot, band, hot at T2
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{0x80, 0x80, 0xff, 0x80, 0xc0, 0x00})
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), []byte{0x3f, 0x7f, 0xbf, 0xff, 0x20})
	f.Fuzz(func(t *testing.T, t1b, gapb, marginb, clockb uint8, walk []byte) {
		cfg := polca.Config{
			T1:          0.30 + 0.6*float64(t1b)/255,
			UncapMargin: 0.005 + 0.1*float64(marginb)/255,
			LPBaseMHz:   1410 - float64(clockb),
			LPDeepMHz:   1410 - 2*float64(clockb),
			HPCapMHz:    1305 + float64(clockb%64),
		}
		cfg.T2 = cfg.T1 + 0.01 + 0.2*float64(gapb)/255
		if cfg.Validate() != nil || len(walk) > 64 {
			t.Skip()
		}
		m := cfg.UncapMargin
		anchors := [4]float64{cfg.T1, cfg.T1 - m, cfg.T2, cfg.T2 - m}
		ps := pairs(t, cfg)
		for i, b := range walk {
			if b == 0xff {
				for _, p := range ps {
					p.reset()
				}
				continue
			}
			u := anchors[b>>6] + 0.0025*float64(int(b&63)-32)
			for _, p := range ps {
				p.step(t, i, u)
			}
		}
	})
}

// TestOnTelemetryDoesNotAllocate pins the hot path: with tracing off a
// tick, engaging and releasing rungs included, allocates nothing.
func TestOnTelemetryDoesNotAllocate(t *testing.T) {
	act := newFake()
	for _, p := range pairs(t, polca.DefaultConfig()) {
		utils := []float64{0.70, 0.82, 0.90, 0.87, 0.90, 0.60}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			p.policy.OnTelemetry(sim.Time(i)*2*time.Second, utils[i%len(utils)], act)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: OnTelemetry allocates %.1f times per tick", p.name, allocs)
		}
	}
}

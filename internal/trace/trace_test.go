package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"polca/internal/stats"
)

func shape() ClusterShape {
	return ClusterShape{
		Servers:          40,
		ProvisionedWatts: 40 * 4600,
		IdleServerWatts:  1600,
		BusyServerWatts:  3700,
		MeanServiceSec:   25,
	}
}

func TestDiurnalModelValidates(t *testing.T) {
	if err := ProductionInference().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ProductionInference()
	bad.Step = 0
	if bad.Validate() == nil {
		t.Error("zero step should fail")
	}
	bad = ProductionInference()
	bad.Floor = 0.9
	if bad.Validate() == nil {
		t.Error("floor above ceiling should fail")
	}
}

func TestReferenceShape(t *testing.T) {
	m := ProductionInference()
	ref := m.Reference(Week, rand.New(rand.NewSource(1)))
	if ref.Len() != int(Week/m.Step) {
		t.Fatalf("len = %d", ref.Len())
	}
	peak := ref.Peak()
	// The offered-load curve peaks near 0.72; the simulated row's own
	// stochastic peaks bring the observed Table 4 value to ~79%.
	if peak < 0.66 || peak > 0.76 {
		t.Errorf("peak utilization = %.3f, want ~0.72", peak)
	}
	// Diurnal: day-peak vs night-trough separation is substantial.
	var dayVals, nightVals []float64
	for i, v := range ref.Values {
		h := int(ref.TimeAt(i).Hours()) % 24
		if h >= 12 && h < 16 {
			dayVals = append(dayVals, v)
		}
		if h >= 0 && h < 4 {
			nightVals = append(nightVals, v)
		}
	}
	if stats.Mean(dayVals)-stats.Mean(nightVals) < 0.12 {
		t.Errorf("diurnal swing too small: day %.3f vs night %.3f", stats.Mean(dayVals), stats.Mean(nightVals))
	}
	// Table 4: short-term variation small — max 2 s rise well below training's.
	if rise := ref.MaxRise(2 * time.Second); rise > 0.05 {
		t.Errorf("2s spike = %.3f of provisioned, want small for inference", rise)
	}
	// Bounds respected.
	if stats.Min(ref.Values) < m.Floor-1e-9 || stats.Max(ref.Values) > m.Ceiling+1e-9 {
		t.Error("reference escapes floor/ceiling")
	}
}

func TestReferenceDeterministic(t *testing.T) {
	m := ProductionInference()
	a := m.Reference(Day, rand.New(rand.NewSource(7)))
	b := m.Reference(Day, rand.New(rand.NewSource(7)))
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("reference not deterministic")
		}
	}
}

func TestWeekendDip(t *testing.T) {
	m := ProductionInference()
	// Day 0 is a weekday, days 5-6 the weekend.
	wd := m.MeanAt(2*Day + 14*time.Hour)
	we := m.MeanAt(5*Day + 14*time.Hour)
	if we >= wd {
		t.Errorf("weekend %.3f should dip below weekday %.3f", we, wd)
	}
}

func TestBusyFractionRoundTrip(t *testing.T) {
	s := shape()
	for _, u := range []float64{0.4, 0.5, 0.6, 0.7} {
		frac := s.BusyFraction(u)
		if frac <= 0 || frac > 0.97 {
			t.Fatalf("busy fraction at %.2f = %v", u, frac)
		}
		back := s.UtilFromBusy(frac)
		if diff := back - u; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round trip at %.2f: got %.4f", u, back)
		}
	}
	// Clamps.
	if s.BusyFraction(0) != 0 {
		t.Error("below-idle utilization should clamp to 0")
	}
	if s.BusyFraction(5) != 0.97 {
		t.Error("impossible utilization should clamp to 0.97")
	}
}

func TestShapeValidate(t *testing.T) {
	bad := []ClusterShape{
		{},
		{Servers: 1, ProvisionedWatts: 1, IdleServerWatts: 5, BusyServerWatts: 4, MeanServiceSec: 1},
		{Servers: 1, ProvisionedWatts: 1, IdleServerWatts: 1, BusyServerWatts: 2, MeanServiceSec: 0},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestFitArrivalsAndValidate(t *testing.T) {
	m := ProductionInference()
	ref := m.Reference(Week, rand.New(rand.NewSource(3)))
	plan, err := FitArrivals(ref, shape(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Horizon() < Week-5*time.Minute {
		t.Errorf("plan horizon = %v", plan.Horizon())
	}
	// Paper §6.4: MAPE between synthetic and original power within 3%.
	mape, err := ValidateFit(ref, plan, shape())
	if err != nil {
		t.Fatal(err)
	}
	if mape > 0.03 {
		t.Errorf("MAPE = %.4f, want <= 0.03 (paper criterion)", mape)
	}
}

func TestFitRejectsBadShape(t *testing.T) {
	ref := ProductionInference().Reference(Day, rand.New(rand.NewSource(1)))
	if _, err := FitArrivals(ref, ClusterShape{}, time.Minute); err == nil {
		t.Error("want error")
	}
}

func TestRatePlanAccessors(t *testing.T) {
	p := RatePlan{Bucket: time.Minute, Rates: []float64{1, 2, 3}}
	if p.Horizon() != 3*time.Minute {
		t.Errorf("horizon = %v", p.Horizon())
	}
	if p.RateAt(90*time.Second) != 2 {
		t.Errorf("RateAt = %v", p.RateAt(90*time.Second))
	}
	if p.RateAt(-time.Second) != 0 || p.RateAt(time.Hour) != 0 {
		t.Error("out-of-range rates should be 0")
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{-1, -1}, {0, 0}, {time.Minute - 1, 0}, {time.Minute, 1}, {3 * time.Minute, 3}, {time.Hour, 3}} {
		if got := p.BucketAt(c.at); got != c.want {
			t.Errorf("BucketAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if got := (RatePlan{Rates: []float64{1}}).BucketAt(time.Minute); got != -1 {
		t.Errorf("BucketAt without buckets = %d, want -1", got)
	}
	s := p.Scale(1.3)
	if s.Rates[2] < 3.9-1e-9 || s.Rates[2] > 3.9+1e-9 {
		t.Errorf("Scale = %v", s.Rates)
	}
	if p.Rates[2] != 3 {
		t.Error("Scale mutated the original")
	}
}

func TestArrivalsFollowRates(t *testing.T) {
	p := RatePlan{Bucket: time.Hour, Rates: []float64{2, 0, 4}}
	arr := p.Arrivals(rand.New(rand.NewSource(11)))
	counts := make([]int, 3)
	for _, a := range arr {
		counts[int(a/time.Hour)]++
	}
	// Expect ~7200, 0, ~14400 with Poisson noise.
	if counts[0] < 6500 || counts[0] > 7900 {
		t.Errorf("bucket 0 arrivals = %d, want ~7200", counts[0])
	}
	if counts[1] != 0 {
		t.Errorf("bucket 1 arrivals = %d, want 0 (zero rate)", counts[1])
	}
	if counts[2] < 13400 || counts[2] > 15400 {
		t.Errorf("bucket 2 arrivals = %d, want ~14400", counts[2])
	}
	// Sorted and in-range.
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if arr[len(arr)-1] >= p.Horizon() {
		t.Error("arrival beyond horizon")
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	p := RatePlan{Bucket: time.Minute, Rates: []float64{5, 5}}
	a := p.Arrivals(rand.New(rand.NewSource(2)))
	b := p.Arrivals(rand.New(rand.NewSource(2)))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrivals diverge")
		}
	}
}

// legacyShapeGap is the inter-arrival draw RatePlan made from its Erlang
// shape k before the shape folded into Gap, copied verbatim.
func legacyShapeGap(k int) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 {
		if k <= 1 {
			return rng.ExpFloat64()
		}
		var sum float64
		for i := 0; i < k; i++ {
			sum += rng.ExpFloat64()
		}
		return sum / float64(k)
	}
}

// TestGapMatchesLegacyShapes pins the one gap path to the two it replaced:
// FitArrivals' plan (FrontDoorGap) must give the Shape-32 arrival times,
// and a nil Gap the Shape 0 and 1 ones, equal to the nanosecond.
func TestGapMatchesLegacyShapes(t *testing.T) {
	same := func(name string, got, want RatePlan) {
		t.Helper()
		a := got.Arrivals(rand.New(rand.NewSource(5)))
		b := want.Arrivals(rand.New(rand.NewSource(5)))
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d arrivals, legacy %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d at %v, legacy %v", name, i, a[i], b[i])
			}
		}
	}
	ref := ProductionInference().Reference(2*time.Hour, rand.New(rand.NewSource(3)))
	fit, err := FitArrivals(ref, shape(), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	legacy := fit
	legacy.Gap = legacyShapeGap(32)
	same("FitArrivals", fit, legacy)

	poisson := RatePlan{Bucket: 10 * time.Minute, Rates: []float64{2, 0, 4}}
	for _, k := range []int{0, 1} {
		legacy := poisson
		legacy.Gap = legacyShapeGap(k)
		same(fmt.Sprintf("nil Gap vs Shape %d", k), poisson, legacy)
	}
}

func TestReferenceTemporalStructure(t *testing.T) {
	m := ProductionInference()
	ref := m.Reference(3*Day, rand.New(rand.NewSource(21)))
	// Short-term noise is AR(1)-correlated: adjacent 2s samples nearly equal.
	r, err := ref.Autocorrelation(2 * time.Second)
	if err != nil || r < 0.9 {
		t.Errorf("lag-2s autocorrelation = %v, %v; want high (smooth noise)", r, err)
	}
	// The diurnal cycle dominates: 24h-lag correlation is strong while the
	// 12h lag (peak vs trough) is strongly negative.
	day, err := ref.Autocorrelation(24 * time.Hour)
	if err != nil || day < 0.5 {
		t.Errorf("lag-24h autocorrelation = %v, %v; want strong diurnal", day, err)
	}
	half, err := ref.Autocorrelation(12 * time.Hour)
	if err != nil || half > 0 {
		t.Errorf("lag-12h autocorrelation = %v, %v; want negative (anti-phase)", half, err)
	}
	// The utilization distribution is broad, not a point mass: it occupies
	// at least half of ten equal-width bins over its range.
	lo, hi := stats.Min(ref.Values), stats.Max(ref.Values)
	var bins [10]bool
	for _, v := range ref.Values {
		bins[min(int((v-lo)/(hi-lo)*10), 9)] = true
	}
	occupied := 0
	for _, b := range bins {
		if b {
			occupied++
		}
	}
	if occupied < 5 {
		t.Errorf("utilization occupies only %d/10 bins", occupied)
	}
}

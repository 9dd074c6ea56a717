package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got := Sum(xs); got != 8 {
		t.Errorf("Sum = %v, want 8", got)
	}
	if got := Min(xs); got != -2 {
		t.Errorf("Min = %v, want -2", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Errorf("Min(nil) = %v, want +Inf", got)
	}
	if got := Max(nil); !math.IsInf(got, -1) {
		t.Errorf("Max(nil) = %v, want -Inf", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {105, 50},
		{40, 32}, // rank 1.6 -> 20 + 0.6*(35-20) = 29... check below
	}
	// rank = p/100*(n-1); p=40 -> rank 1.6 -> 20*(0.4)+35*(0.6)=29
	cases[6].want = 29
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", ys)
	}
	// Sorted copies, and PercentileSorted reads the copy as Percentile reads
	// the original.
	sorted := Sorted(ys)
	if ys[0] != 3 || sorted[0] != 1 || sorted[1] != 2 || sorted[2] != 3 {
		t.Errorf("Sorted(%v) = %v", ys, sorted)
	}
	for _, p := range []float64{0, 40, 50, 99, 100} {
		if got, want := PercentileSorted(sorted, p), Percentile(ys, p); got != want {
			t.Errorf("PercentileSorted(Sorted, %v) = %v, Percentile %v", p, got, want)
		}
	}
}

func TestPercentileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := 1 + int(seed%97+97)%97
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson identical direction = %v, %v; want 1, nil", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson opposite = %v, %v; want -1, nil", r, err)
	}
	if _, err := Pearson(xs, xs[:3]); err == nil {
		t.Error("Pearson mismatched lengths: want error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("Pearson short input: want error")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("Pearson zero variance: want error")
	}
}

func TestPearsonBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		n := 2 + int(seed%31+31)%31
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200, 0, 400}
	pred := []float64{110, 180, 5, 400}
	got, err := MAPE(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	// |10/100| + |20/200| + skip + |0/400| over 3 = 0.2/3
	want := (0.1 + 0.1 + 0) / 3
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("MAPE = %v, want %v", got, want)
	}
	if _, err := MAPE(actual, pred[:2]); err == nil {
		t.Error("MAPE mismatched lengths: want error")
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("MAPE all-zero actual: want error")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{2, 4}, 4)
	if got[0] != 0.5 || got[1] != 1 {
		t.Errorf("Normalize = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Normalize by zero: want panic")
		}
	}()
	Normalize([]float64{1}, 0)
}

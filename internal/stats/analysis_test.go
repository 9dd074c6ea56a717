package stats

import (
	"math"
	"testing"
	"time"
)

func TestAutocorrelation(t *testing.T) {
	// A pure sine has autocorrelation ~1 at its period and ~-1 at half.
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	r1, err := Autocorrelation(xs, 100)
	if err != nil || r1 < 0.95 {
		t.Errorf("period lag r = %v, %v", r1, err)
	}
	r2, err := Autocorrelation(xs, 50)
	if err != nil || r2 > -0.95 {
		t.Errorf("half-period lag r = %v, %v", r2, err)
	}
	if _, err := Autocorrelation(xs, 0); err == nil {
		t.Error("zero lag should error")
	}
	if _, err := Autocorrelation(xs[:3], 5); err == nil {
		t.Error("short input should error")
	}
}

func TestSeriesAutocorrelation(t *testing.T) {
	s := Series{Step: time.Second, Values: make([]float64, 600)}
	for i := range s.Values {
		s.Values[i] = math.Sin(2 * math.Pi * float64(i) / 60)
	}
	r, err := s.Autocorrelation(time.Minute)
	if err != nil || r < 0.95 {
		t.Errorf("1-minute lag r = %v, %v", r, err)
	}
	if _, err := (Series{}).Autocorrelation(time.Second); err == nil {
		t.Error("series without step should error")
	}
}

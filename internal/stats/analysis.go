package stats

import (
	"errors"
	"time"
)

// Autocorrelation returns the lag-k autocorrelation of xs (Pearson between
// the series and itself shifted by lag). It errors on short input, bad
// lags, or zero variance.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	if lag <= 0 {
		return 0, errors.New("stats: non-positive lag")
	}
	if len(xs) <= lag+1 {
		return 0, ErrEmpty
	}
	return Pearson(xs[:len(xs)-lag], xs[lag:])
}

// Autocorrelation returns the series' autocorrelation at the given time
// lag (rounded to whole samples).
func (s Series) Autocorrelation(lag time.Duration) (float64, error) {
	if s.Step <= 0 {
		return 0, errors.New("stats: series without a step")
	}
	k := int((lag + s.Step/2) / s.Step)
	return Autocorrelation(s.Values, k)
}

// Package stats provides the small statistical toolkit used throughout the
// POLCA reproduction: descriptive statistics, percentiles, Pearson
// correlation, mean absolute percentage error (MAPE), and histogram
// summaries. All functions are pure and operate on float64 slices.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Min returns the minimum of xs, or +Inf if xs is empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf if xs is empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts the input, so xs
// is not modified. Percentile returns 0 for empty input. To read several
// percentiles of one series, sort it once with Sorted and read the copy
// with PercentileSorted.
func Percentile(xs []float64, p float64) float64 {
	return PercentileSorted(Sorted(xs), p)
}

// Sorted returns a copy of xs sorted ascending.
func Sorted(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// PercentileSorted is like Percentile but requires xs to be sorted
// ascending; it performs no allocation.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns an error if the slices differ in length, are shorter
// than two elements, or either has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched lengths")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MAPE returns the mean absolute percentage error between the actual and
// predicted series, as a fraction (0.03 == 3%). Zero-valued actual samples
// are skipped to avoid division by zero. MAPE returns an error if the series
// differ in length or no valid samples remain.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, errors.New("stats: mismatched lengths")
	}
	var sum float64
	var n int
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((actual[i] - predicted[i]) / actual[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return sum / float64(n), nil
}

// Normalize returns a copy of xs with every element divided by denom.
// It panics if denom is zero.
func Normalize(xs []float64, denom float64) []float64 {
	if denom == 0 {
		panic("stats: normalize by zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / denom
	}
	return out
}

// Jain returns Jain's fairness index of the values: (Σx)² / (n·Σx²),
// ranging from 1/n (one value holds everything) to 1 (perfect equality).
// The scenario reports apply it to per-class SLO attainment, so a policy
// that buys aggregate attainment by starving one class scores visibly
// worse than one that degrades evenly. Empty or all-zero input yields 1
// (nothing to be unfair about).
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

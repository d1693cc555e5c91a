package stats

import (
	"fmt"
	"math"
	"sort"
)

// RMSE returns the root mean square error between predictions and actuals
// (Eq. 14). It errors when the slices differ in length or are empty.
func RMSE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("stats: RMSE length mismatch %d vs %d", len(predicted), len(actual))
	}
	if len(predicted) == 0 {
		return 0, ErrEmptySample
	}
	var sum float64
	for i := range predicted {
		d := predicted[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(predicted))), nil
}

// MAE returns the mean absolute error between predictions and actuals.
func MAE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("stats: MAE length mismatch %d vs %d", len(predicted), len(actual))
	}
	if len(predicted) == 0 {
		return 0, ErrEmptySample
	}
	var sum float64
	for i := range predicted {
		sum += math.Abs(predicted[i] - actual[i])
	}
	return sum / float64(len(predicted)), nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance, or 0 for fewer than one
// element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It errors on an empty slice or
// out-of-range q.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmptySample
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MinMax returns the extrema of xs; it errors on an empty slice.
func MinMax(xs []float64) (minVal, maxVal float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmptySample
	}
	minVal, maxVal = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minVal {
			minVal = x
		}
		if x > maxVal {
			maxVal = x
		}
	}
	return minVal, maxVal, nil
}

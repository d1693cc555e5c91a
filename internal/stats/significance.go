package stats

import (
	"fmt"

	"repro/internal/geo"
)

// PermutationPValue estimates the significance of an observed Peacock
// statistic between samples a and b with a permutation test: the pooled
// points are randomly re-split `rounds` times and the p-value is the
// fraction of splits whose statistic is at least as extreme as the
// observed one (with the +1 correction so the estimate is never exactly
// zero). Peacock's 2-D statistic has no closed-form null distribution;
// permutation is the standard distribution-free answer and stays exact
// under the null.
//
// The test uses the sample-origin statistic, Peacock2DFast, whose exact
// sweep costs O(n log n) per round.
func PermutationPValue(a, b []geo.Point, rounds int, seed uint64) (observed, pValue float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, ErrEmptySample
	}
	if rounds < 1 {
		return 0, 0, fmt.Errorf("stats: permutation rounds %d < 1", rounds)
	}
	observed, err = Peacock2DFast(a, b)
	if err != nil {
		return 0, 0, err
	}
	pooled := make([]geo.Point, 0, len(a)+len(b))
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	rng := NewRNG(seed)
	extreme := 0
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		d, err := Peacock2DFast(pooled[:len(a)], pooled[len(a):])
		if err != nil {
			return 0, 0, err
		}
		if d >= observed-1e-15 {
			extreme++
		}
	}
	pValue = float64(extreme+1) / float64(rounds+1)
	return observed, pValue, nil
}

// SignificantShift reports whether the live sample differs from the
// historical one at the given significance level alpha (e.g. 0.05), using
// a permutation test with the given budget. It is the rigorous companion
// to the similarity bands of Section V-C: a band switch backed by a
// significant p-value is a true distribution shift rather than sampling
// noise.
func SignificantShift(hist, live []geo.Point, alpha float64, rounds int, seed uint64) (bool, error) {
	if alpha <= 0 || alpha >= 1 {
		return false, fmt.Errorf("stats: significance level %v outside (0,1)", alpha)
	}
	_, p, err := PermutationPValue(hist, live, rounds, seed)
	if err != nil {
		return false, err
	}
	return p <= alpha, nil
}

package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
)

// PolyPenalty is the paper's future-work extension ("we can design the
// penalty function as high-order polynomials to approximate an incoming
// distribution in any reasonable shape"): a polynomial g(c) fitted by
// least squares to the empirical survival function of observed
// request-to-landmark distances. Where requests actually occur, the
// penalty stays permissive; beyond the observed range it vanishes.
type PolyPenalty struct {
	coeffs []float64 // ascending powers of (c/scale)
	scale  float64   // the largest fitted distance
}

// FitPolyPenalty fits a degree-`degree` polynomial to the survival
// function of the distances sample (the fraction of requests farther than
// c from their landmark). At least degree+2 distinct distances are
// required.
func FitPolyPenalty(distances []float64, degree int) (*PolyPenalty, error) {
	if degree < 1 || degree > 12 {
		return nil, fmt.Errorf("core: polynomial degree %d outside [1,12]", degree)
	}
	clean := make([]float64, 0, len(distances))
	for _, d := range distances {
		if d >= 0 && !math.IsNaN(d) && !math.IsInf(d, 0) {
			clean = append(clean, d)
		}
	}
	if len(clean) < degree+2 {
		return nil, fmt.Errorf("core: %d usable distances for degree %d", len(clean), degree)
	}
	sort.Float64s(clean)
	scale := clean[len(clean)-1]
	if scale <= 0 {
		return nil, fmt.Errorf("core: all distances are zero")
	}

	// Survival samples: S(d_i) = 1 - i/(n-1) at the sorted distances,
	// plus the anchor S(0) = 1.
	n := len(clean)
	xs := make([]float64, 0, n+1)
	ys := make([]float64, 0, n+1)
	xs = append(xs, 0)
	ys = append(ys, 1)
	for i, d := range clean {
		xs = append(xs, d/scale)
		ys = append(ys, 1-float64(i)/float64(n-1))
	}

	// Least squares on the Vandermonde system (normal equations with a
	// small ridge, solved by Gaussian elimination).
	cols := degree + 1
	design := matrix.New(len(xs), cols)
	for r, x := range xs {
		v := 1.0
		for c := 0; c < cols; c++ {
			design.Set(r, c, v)
			v *= x
		}
	}
	xtx := matrix.New(cols, cols)
	matrix.MulATB(xtx, design, design)
	for i := 0; i < cols; i++ {
		xtx.Set(i, i, xtx.At(i, i)+1e-9)
	}
	xty := make([]float64, cols)
	for r := range xs {
		for c := 0; c < cols; c++ {
			xty[c] += design.At(r, c) * ys[r]
		}
	}
	coeffs, err := matrix.SolveLinear(xtx, xty)
	if err != nil {
		return nil, fmt.Errorf("core: poly fit: %w", err)
	}
	return &PolyPenalty{coeffs: coeffs, scale: scale}, nil
}

// Eval returns the fitted penalty at walking cost c, clamped to [0, 1];
// beyond the fitted range it is 0 (no requests were ever observed there).
func (p *PolyPenalty) Eval(c float64) float64 {
	if c < 0 {
		c = 0
	}
	if c >= p.scale {
		return 0
	}
	x := c / p.scale
	// Horner from the highest power.
	v := 0.0
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		v = v*x + p.coeffs[i]
	}
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Scale returns the largest fitted distance (Eval is 0 beyond it).
func (p *PolyPenalty) Scale() float64 { return p.scale }

// SetCustomPenalty pins an arbitrary penalty function g(c) on the placer
// — the hook for PolyPenalty and other experimental shapes. While a
// custom penalty is set, KS-driven switching is suspended; pass nil to
// restore the built-in penalty (and switching).
func (e *ESharing) SetCustomPenalty(g func(c float64) float64) {
	e.customPenalty = g
}

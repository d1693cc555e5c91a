package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

// Evaluation-level differential for minRatioCurve, the selective
// prefix-ratio scan behind evalRatioCurve: against sorting every cost and
// scanning all prefixes, the (ratio, prefix, last cost) it returns must be
// bit-identical and every curve slot it records no higher.

// fullSortRatioCurve is the scan minRatioCurve replaced, kept as its
// oracle: sort every cost, then take the first strict minimum of the
// prefix ratios, with head holding prefixes 1..K-1 and the tail the
// minimum over the rest.
func fullSortRatioCurve(base float64, cost []float64) (candEval, []float64, float64) {
	sorted := slices.Clone(cost)
	slices.Sort(sorted)
	head := make([]float64, lazyCurveK-1)
	for k := range head {
		head[k] = math.Inf(1)
	}
	best := candEval{ratio: math.Inf(1)}
	tail := math.Inf(1)
	var acc float64
	for k, c := range sorted {
		acc += c
		ratio := (base + acc) / float64(k+1)
		if k+1 < lazyCurveK {
			head[k] = ratio
		} else if ratio < tail {
			tail = ratio
		}
		if ratio < best.ratio {
			best = candEval{ratio: ratio, prefix: k + 1, last: c}
		}
	}
	return best, head, tail
}

// checkMinRatioCurve compares minRatioCurve with the full-sort oracle on
// one input.
func checkMinRatioCurve(base float64, cost []float64) error {
	want, wantHead, wantTail := fullSortRatioCurve(base, cost)
	head := make([]float64, lazyCurveK-1)
	got, tail := minRatioCurve(base, slices.Clone(cost), head)
	if math.Float64bits(got.ratio) != math.Float64bits(want.ratio) ||
		got.prefix != want.prefix ||
		math.Float64bits(got.last) != math.Float64bits(want.last) {
		return fmt.Errorf("got (ratio %v, prefix %d, last %v), full sort (ratio %v, prefix %d, last %v)",
			got.ratio, got.prefix, got.last, want.ratio, want.prefix, want.last)
	}
	for k := range head {
		if head[k] > wantHead[k] {
			return fmt.Errorf("head[%d] = %v above the full sort's %v", k, head[k], wantHead[k])
		}
	}
	if tail > wantTail {
		return fmt.Errorf("tail %v above the full sort's %v", tail, wantTail)
	}
	return nil
}

// costsFrom spreads raw bytes over a small value alphabet, so ties are
// common: cost k is raw[k]·scale.
func costsFrom(scale float64, raw []byte) []float64 {
	cost := make([]float64, len(raw))
	for k, b := range raw {
		cost[k] = float64(b) * scale
	}
	return cost
}

func repeatByte(b byte, n int) []byte {
	return bytes.Repeat([]byte{b}, n)
}

// FuzzEvalRatioCurve drives minRatioCurve through its three exits: the
// lazyCurveK smallest costs certified on their own, the partition of
// every cost at or below the best ratio, and the full-sort fallback.
func FuzzEvalRatioCurve(f *testing.F) {
	rng := stats.NewRNG(5)
	random := make([]byte, 300)
	for k := range random {
		random[k] = byte(rng.IntN(256))
	}
	// Equal costs whose float prefix sums drift below the first ratios
	// past lazyCurveK: the certificate fails and the fallback decides.
	f.Add(0.0, 0.7, repeatByte(1, 18))
	f.Add(0.0, 0.1, repeatByte(1, 48))
	// Ties on both sides of the partition threshold: the best ratio, 4,
	// equals the second cost value exactly.
	f.Add(40.0, 1.0, append(append(repeatByte(2, 20), repeatByte(4, 20)...), repeatByte(5, 10)...))
	// Zero self-costs under a zeroed opening cost.
	f.Add(0.0, 3.5, append(repeatByte(0, 5), random[:60]...))
	// A negative base: an opened candidate with switch savings.
	f.Add(-50.0, 1.25, random[:120])
	// A huge opening cost: the minimising prefix is long, so the
	// partition path sorts most of the costs.
	f.Add(1e7, 1.0, random)
	f.Add(2000.0, 0.3, random[:200])
	// Fewer than 32 clients, on both sides of lazyCurveK.
	f.Add(10.0, 1.0, random[:5])
	f.Add(10.0, 1.0, random[:16])
	f.Add(10.0, 1.0, random[:17])
	f.Add(10.0, 1.0, random[:31])
	f.Fuzz(func(t *testing.T, base, scale float64, raw []byte) {
		if len(raw) > 4096 || math.IsNaN(base) || math.IsInf(base, 0) ||
			!(scale >= 0) || math.IsInf(scale, 0) ||
			math.IsInf(4*float64(len(raw))*255*scale+math.Abs(base), 0) {
			// NewProblem keeps every cost, sum and ratio finite.
			t.Skip()
		}
		if err := checkMinRatioCurve(base, costsFrom(scale, raw)); err != nil {
			t.Fatalf("base %v scale %v n %d: %v", base, scale, len(raw), err)
		}
	})
}

// TestMinRatioCurveFallback pins the fallback on an input that needs it:
// with eighteen costs of 0.7, the float prefix sums make the ratio at 18
// the first strict minimum, while the sixteen smallest costs alone
// would stop at 3. Dropping the certificate fails this test.
func TestMinRatioCurveFallback(t *testing.T) {
	cost := costsFrom(0.7, repeatByte(1, 18))
	rc := newRatioCurve(0, make([]float64, lazyCurveK-1))
	if rc.selective(slices.Clone(cost)) {
		t.Fatalf("certificate held at prefix %d; want the fallback", rc.best.prefix)
	}
	if err := checkMinRatioCurve(0, cost); err != nil {
		t.Fatal(err)
	}
	if want, _, _ := fullSortRatioCurve(0, cost); want.prefix != 18 {
		t.Fatalf("full sort picks prefix %d, want 18", want.prefix)
	}
}

// TestMinRatioCurvePartition pins the partition path: a huge opening
// cost makes the minimising prefix far longer than lazyCurveK, and the
// selective scan must certify it without the fallback.
func TestMinRatioCurvePartition(t *testing.T) {
	rng := stats.NewRNG(9)
	cost := make([]float64, 500)
	for k := range cost {
		cost[k] = rng.Float64() * 100
	}
	rc := newRatioCurve(5000, make([]float64, lazyCurveK-1))
	if !rc.selective(slices.Clone(cost)) {
		t.Fatal("certificate failed; want the partition path to hold")
	}
	if rc.best.prefix <= lazyCurveK {
		t.Fatalf("prefix %d, want one longer than %d", rc.best.prefix, lazyCurveK)
	}
	if err := checkMinRatioCurve(5000, cost); err != nil {
		t.Fatal(err)
	}
}

// TestMinRatioCurveMatchesFullSort runs the differential over random
// cost vectors: uniform, lattice-tied and heavy-tailed, at sizes around
// lazyCurveK and the server's ~230 unconnected clients, with zero,
// moderate, huge and negative bases.
func TestMinRatioCurveMatchesFullSort(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(400)
		cost := make([]float64, n)
		for k := range cost {
			switch trial % 3 {
			case 0:
				cost[k] = rng.Float64() * 500
			case 1:
				cost[k] = float64(rng.IntN(12)) * 37.5
			default:
				cost[k] = math.Exp(rng.Float64()*12) - 1
			}
		}
		base := []float64{0, 300, 1e6, -200}[trial%4]
		if err := checkMinRatioCurve(base, cost); err != nil {
			t.Fatalf("trial %d (n=%d base=%v): %v", trial, n, base, err)
		}
	}
}

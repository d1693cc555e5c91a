package stats

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
)

// ErrEmptySample is returned by the KS tests when either sample is empty.
var ErrEmptySample = errors.New("stats: empty sample")

// ErrNonFiniteSample is returned by Peacock2DFast when a sample point has
// a NaN or infinite coordinate.
var ErrNonFiniteSample = errors.New("stats: non-finite sample point")

// Peacock2D computes Peacock's two-dimensional two-sample KS statistic
// between point samples a and b:
//
//	D = sup over quadrant origins and the four quadrant orientations of
//	    |H(x,y) - G(x,y)|                                       (Eq. 9)
//
// following Peacock (1983): the supremum is taken over the grid of all
// (x, y) pairs formed from the pooled coordinates, and for each origin the
// four quadrants (x<X,y<Y), (x<X,y>Y), (x>X,y<Y), (x>X,y>Y) are examined.
// For n pooled points this enumerates O(n²) origins and costs O(n³) time,
// the complexity quoted in the paper.
//
// The returned statistic lies in [0, 1]: 0 means the empirical
// distributions are indistinguishable, 1 that they are disjoint.
func Peacock2D(a, b []geo.Point) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmptySample
	}
	xs := pooledCoords(a, b, func(p geo.Point) float64 { return p.X })
	ys := pooledCoords(a, b, func(p geo.Point) float64 { return p.Y })
	var d float64
	for _, x := range xs {
		for _, y := range ys {
			if diff := quadrantMaxDiff(a, b, x, y); diff > d {
				d = diff
			}
		}
	}
	return d, nil
}

// Peacock2DFast computes the same statistic but restricts quadrant origins
// to the observed sample points instead of the full O(n²) coordinate grid
// (the standard practical variant, e.g. Press et al.). It is a lower bound
// on Peacock2D that closely tracks it; the online placement loop uses this
// version, while tests verify its agreement with the brute-force
// reference.
//
// Counting each origin's quadrants point by point would cost O(n²). An
// exact sweep replaces that recount (DESIGN.md §15): the pooled origins
// are visited in descending x while a Fenwick tree per sample, keyed by
// y rank, holds the points with x at or right of the sweep line. The
// four quadrant counts at every origin then follow from three prefix
// counts, so the whole statistic costs O(n log n) on one goroutine. The
// counts are the integers quadrantMaxDiff would produce, and each
// quadrant's difference is the same float expression, so the result is
// bit-identical to the per-origin loop kept as the test oracle.
//
// Every coordinate must be finite: a NaN or ±Inf returns
// ErrNonFiniteSample, because the sweep's sort and rank order need a
// total order on the coordinates.
func Peacock2DFast(a, b []geo.Point) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmptySample
	}
	ys := pooledCoords(a, b, func(p geo.Point) float64 { return p.Y })
	m := len(ys)
	n := len(a) + len(b)
	pts := make([]sweepPoint, 0, n)
	for s, sample := range [2][]geo.Point{a, b} {
		for _, p := range sample {
			if !p.IsFinite() {
				return 0, ErrNonFiniteSample
			}
			// Ranks are equality classes under ==, so rank >= r is
			// exactly y >= ys[r].
			r, _ := slices.BinarySearch(ys, p.Y)
			pts = append(pts, sweepPoint{x: p.X, rank: int32(r), sample: uint8(s)})
		}
	}

	// aboveY[s][r] = #(sample s points with y rank >= r): the y-only
	// marginal of the quadrant counts.
	var aboveY [2][]int32
	for s := range aboveY {
		aboveY[s] = make([]int32, m+1)
	}
	for _, p := range pts {
		aboveY[p.sample][p.rank]++
	}
	for s := range aboveY {
		for r := m - 1; r >= 0; r-- {
			aboveY[s][r] += aboveY[s][r+1]
		}
	}

	slices.SortFunc(pts, func(p, q sweepPoint) int { return cmp.Compare(q.x, p.x) })
	sizes := [2]int{len(a), len(b)}
	na, nb := float64(len(a)), float64(len(b))
	trees := [2]fenwick{make(fenwick, m), make(fenwick, m)}
	var inserted [2]int
	var c [2][4]int
	var d float64
	for lo := 0; lo < n; {
		// One equal-x group: every point with x == X must be inserted
		// before any origin at X is queried, since quadrantOf files a
		// point on the origin's own vertical line under x >= X.
		hi := lo + 1
		for hi < n && pts[hi].x == pts[lo].x {
			hi++
		}
		for _, p := range pts[lo:hi] {
			trees[p.sample].add(int(p.rank), 1)
			inserted[p.sample]++
		}
		for k := lo; k < hi; k++ {
			r := int(pts[k].rank)
			for s := range c {
				both := trees[s].atLeast(r) // #(x >= X, y >= Y)
				right := inserted[s]        // #(x >= X)
				above := int(aboveY[s][r])  // #(y >= Y)
				c[s] = [4]int{sizes[s] - right - above + both, above - both, right - both, both}
			}
			for q := 0; q < 4; q++ {
				if diff := math.Abs(float64(c[0][q])/na - float64(c[1][q])/nb); diff > d {
					d = diff
				}
			}
		}
		lo = hi
	}
	return d, nil
}

// sweepPoint is one origin of Peacock2DFast's sweep: its x coordinate,
// the rank of its y, and the sample it came from (0 for a, 1 for b).
type sweepPoint struct {
	x      float64
	rank   int32
	sample uint8
}

// fenwick is a binary indexed tree over y ranks answering "how many
// inserted points have rank >= r", each point counted with its weight.
// Rank r lives at 1-based position len(f)-r, so the suffix count is a
// prefix sum.
type fenwick []int32

func (f fenwick) add(r int, w int32) {
	for i := len(f) - r; i <= len(f); i += i & -i {
		f[i-1] += w
	}
}

func (f fenwick) atLeast(r int) int {
	var sum int32
	for i := len(f) - r; i > 0; i -= i & -i {
		sum += f[i-1]
	}
	return int(sum)
}

// Similarity converts a KS statistic into the paper's similarity
// percentage 100·(1-D) used throughout Table IV.
func Similarity(d float64) float64 {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return 100 * (1 - d)
}

// SimilarityBand classifies a similarity percentage into the paper's three
// operating regimes (Section V-C), which drive penalty-function selection.
type SimilarityBand int

// Similarity bands from Section V-C.
const (
	// VerySimilar is above 95%: apply the Type II penalty.
	VerySimilar SimilarityBand = iota + 1
	// SimilarBand is 80–95%: apply the Type III penalty.
	SimilarBand
	// LessSimilar is below 80%: apply the Type I penalty.
	LessSimilar
)

// ClassifySimilarity maps a similarity percentage to its band.
func ClassifySimilarity(pct float64) SimilarityBand {
	switch {
	case pct > 95:
		return VerySimilar
	case pct >= 80:
		return SimilarBand
	default:
		return LessSimilar
	}
}

func pooledCoords(a, b []geo.Point, f func(geo.Point) float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	for _, p := range a {
		out = append(out, f(p))
	}
	for _, p := range b {
		out = append(out, f(p))
	}
	sort.Float64s(out)
	// Deduplicate: repeated coordinates produce identical quadrants.
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// quadrantMaxDiff returns the largest |H-G| over the four quadrants with
// origin (x, y).
func quadrantMaxDiff(a, b []geo.Point, x, y float64) float64 {
	// Counts per quadrant for sample a: [x<X,y<Y], [x<X,y>=Y],
	// [x>=X,y<Y], [x>=X,y>=Y]. Using a half-open convention consistently
	// across both samples keeps the statistic well defined.
	var ca, cb [4]int
	for _, p := range a {
		ca[quadrantOf(p, x, y)]++
	}
	for _, p := range b {
		cb[quadrantOf(p, x, y)]++
	}
	na, nb := float64(len(a)), float64(len(b))
	var d float64
	for q := 0; q < 4; q++ {
		if diff := math.Abs(float64(ca[q])/na - float64(cb[q])/nb); diff > d {
			d = diff
		}
	}
	return d
}

func quadrantOf(p geo.Point, x, y float64) int {
	q := 0
	if p.X >= x {
		q |= 2
	}
	if p.Y >= y {
		q |= 1
	}
	return q
}

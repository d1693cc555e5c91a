package stats

import (
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
)

// KSReference holds the history side of the Peacock KS test that
// Algorithm 2 runs every TestEvery requests: a static sample H tested
// against a short live window W. H is a multiset of places, and
// Statistic(W) returns exactly Peacock2DFast on H expanded to one point
// per occurrence, bit for bit, but does the work that depends on H alone
// once, at construction (DESIGN.md §15):
//
//   - H's distinct points arrive sorted by x. Its distinct y values are
//     sorted once, and H's own weighted quadrant counts at every
//     distinct origin come from one Fenwick sweep in descending x.
//   - Per query, W's sorted coordinates cut the plane into (|W|+1)²
//     rank cells, and W's quadrant counts are constant inside each. One
//     pass over H's distinct points in x order ranks each against W, x
//     by merging and y by counting W's cut points below the point's y
//     rank, and two (|W|+2)² suffix-count tables, H's weighted by the
//     counts, then answer both kinds of origin: W's counts at the H
//     origins and H's counts at the W origins.
//
// Copies of one place are the same origin with the same quadrant counts,
// and every count is an integer over |H| whether it was summed from
// copies or from weights, so visiting each place once leaves every
// float the expanded sweep would compute, and their maximum, unchanged.
//
// A query costs O(d + |W|² + |W| log d) for d distinct places, with no
// sort of H and no log factor per place, and once warmed up to the
// window size it allocates nothing. The scratch lives in the reference,
// so queries must not run concurrently; the placer's decision lock
// already serialises them.
type KSReference struct {
	// pts is H's distinct points in ascending x, each with its count
	// and its rank #(h.y < y), every occurrence counted: the position
	// of its y among H's y values in sorted order, with copies. So
	// rank >= r is exactly y >= the y at position r.
	pts []refPoint
	ys  []float64 // H's distinct y values, ascending
	// below[i] = #(h.y < ys[i]), every occurrence counted, and
	// below[len(ys)] = total.
	below []int32
	// both[k] = #(h.x >= pts[k].x, h.y >= pts[k].y), H's upper-right
	// count at origin pts[k]; the other three counts follow from it,
	// the rank, the running sum of counts in x order and total.
	both  []int32
	total int // |H|, every occurrence counted

	// Per-query scratch.
	wx, wy         []float64 // W's coordinates, ascending
	wFrac          []float64 // wFrac[c] = float64(c)/|W|
	hCells, wCells []int32   // (|W|+2)² suffix-count tables
	// W's strict and non-strict y ranks of an H point, as functions of
	// the point's rank.
	yStrict, yAtMost stepCounter
}

// refPoint is one distinct history place: its x coordinate, the rank
// of its y (see KSReference.pts) and its count.
type refPoint struct {
	x    float64
	rank int32
	w    int32
}

// MaxReferenceTotal is the most occurrences a KSReference history may
// hold: its counts are int32.
const MaxReferenceTotal = math.MaxInt32

// ErrSampleTooLarge is returned by NewKSReference for a history of more
// than MaxReferenceTotal occurrences.
var ErrSampleTooLarge = errors.New("stats: sample too large")

// NewKSReference builds the reference for history h. h must be
// non-empty (ErrEmptySample), finite (ErrNonFiniteSample) and hold at
// most MaxReferenceTotal occurrences (ErrSampleTooLarge). The reference
// keeps its own arrays, so h may be released once this returns.
func NewKSReference(h geo.Multiset) (*KSReference, error) {
	hp, counts := h.Points(), h.Counts()
	if len(hp) == 0 {
		return nil, ErrEmptySample
	}
	total := 0
	ys := make([]float64, len(hp))
	for i, p := range hp {
		if !p.IsFinite() {
			return nil, ErrNonFiniteSample
		}
		ys[i] = p.Y
		total += counts[i]
	}
	if total > MaxReferenceTotal {
		return nil, ErrSampleTooLarge
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)
	// The sweep keys its tree by each place's index in ys; the ranks
	// replace the indices once it is done.
	below := make([]int32, len(ys)+1)
	pts := make([]refPoint, len(hp))
	for i, p := range hp {
		r, _ := slices.BinarySearch(ys, p.Y)
		pts[i] = refPoint{x: p.X, rank: int32(r), w: int32(counts[i])}
		below[r+1] += int32(counts[i])
	}
	for r := 1; r < len(below); r++ {
		below[r] += below[r-1]
	}

	// The sweep: equal-x groups in descending x, each group inserted
	// before any of its origins is queried, since quadrantOf files a
	// point on the origin's own vertical line under x >= X.
	both := make([]int32, len(pts))
	tree := make(fenwick, len(ys))
	for hi := len(pts); hi > 0; {
		lo := hi - 1
		for lo > 0 && pts[lo-1].x == pts[lo].x {
			lo--
		}
		for _, p := range pts[lo:hi] {
			tree.add(int(p.rank), p.w)
		}
		for k := lo; k < hi; k++ {
			both[k] = int32(tree.atLeast(int(pts[k].rank)))
		}
		hi = lo
	}
	for k := range pts {
		pts[k].rank = below[pts[k].rank]
	}
	return &KSReference{pts: pts, ys: ys, below: below, both: both, total: total}, nil
}

// Statistic returns Peacock2DFast(H, w) on H expanded to one point per
// occurrence: the same value, bit for bit, and the same errors for an
// empty or non-finite w.
func (r *KSReference) Statistic(w []geo.Point) (float64, error) {
	nw := len(w)
	if nw == 0 {
		return 0, ErrEmptySample
	}
	r.wx, r.wy = r.wx[:0], r.wy[:0]
	for _, p := range w {
		if !p.IsFinite() {
			return 0, ErrNonFiniteSample
		}
		r.wx = append(r.wx, p.X)
		r.wy = append(r.wy, p.Y)
	}
	slices.Sort(r.wx)
	slices.Sort(r.wy)
	side := nw + 2
	if cap(r.hCells) < side*side {
		r.hCells = make([]int32, side*side)
		r.wCells = make([]int32, side*side)
	}
	hCells, wCells := r.hCells[:side*side], r.wCells[:side*side]
	clear(hCells)
	clear(wCells)
	n := r.total
	na, nb := float64(n), float64(nw)
	// The same division the sweep does per quadrant, done once per count.
	r.wFrac = r.wFrac[:0]
	for c := 0; c <= nw; c++ {
		r.wFrac = append(r.wFrac, float64(c)/nb)
	}

	// Both tables index cells by non-strict ranks (#(w <= v) per axis)
	// and are read at an origin's strict ranks (#(w < V)): for any point
	// v and origin V with either one in W, v >= V ⇔ #(w <= v) > #(w < V).
	for _, p := range w {
		wCells[atMost(r.wx, p.X)*side+atMost(r.wy, p.Y)]++
	}
	suffixCounts(wCells, side)

	// W's y values cut H's y positions into at most |W|+1 runs of
	// constant y rank. For a place of rank r and y value v, every count
	// being at least 1: w.y < v ⇔ #(h.y <= w.y) <= r, and
	// w.y <= v ⇔ #(h.y < w.y) <= r.
	r.yStrict.reset(n, nw)
	r.yAtMost.reset(n, nw)
	for _, y := range r.wy {
		r.yStrict.steps = append(r.yStrict.steps, r.below[atMost(r.ys, y)])
		lt, _ := slices.BinarySearch(r.ys, y)
		r.yAtMost.steps = append(r.yAtMost.steps, r.below[lt])
	}
	r.yStrict.index()
	r.yAtMost.index()

	// The H origins, in ascending x, merged against W's x values. Each H
	// place also lands in H's histogram at its non-strict ranks, with
	// its count.
	var d float64
	var sx, ux, right, left int
	for k, p := range r.pts {
		if k == 0 || p.x != r.pts[k-1].x {
			// left counts every occurrence with x < p.x.
			right = n - left
			for sx < nw && r.wx[sx] < p.x {
				sx++
			}
			for ux < nw && r.wx[ux] <= p.x {
				ux++
			}
		}
		left += int(p.w)
		y := int(p.rank)
		hCells[ux*side+r.yAtMost.count(y)] += p.w
		above, both := n-y, int(r.both[k])
		ch := [4]int{n - right - above + both, above - both, right - both, both}
		cw := cellCounts(wCells, side, nw, sx, r.yStrict.count(y))
		for q := 0; q < 4; q++ {
			if diff := math.Abs(float64(ch[q])/na - r.wFrac[cw[q]]); diff > d {
				d = diff
			}
		}
	}
	suffixCounts(hCells, side)

	// The W origins.
	for _, p := range w {
		sx, _ := slices.BinarySearch(r.wx, p.X)
		sy, _ := slices.BinarySearch(r.wy, p.Y)
		ch := cellCounts(hCells, side, n, sx, sy)
		cw := cellCounts(wCells, side, nw, sx, sy)
		for q := 0; q < 4; q++ {
			if diff := math.Abs(float64(ch[q])/na - r.wFrac[cw[q]]); diff > d {
				d = diff
			}
		}
	}
	return d, nil
}

// atMost returns #(s[i] <= v) for ascending s.
func atMost(s []float64, v float64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// stepCounter answers count(r) = #(steps[j] <= r) for ascending steps
// and r in [0, n). A bucket table of about 8 entries per step,
// first[b] = #(steps[j] < b<<shift), starts each count at most a bucket's
// worth of steps short, so over all r in [0, n) the scans add O(n) and a
// count is two L1-resident loads in the common case. The table replaces
// a per-position array that at |H| = 1M missed the cache on every H
// origin.
type stepCounter struct {
	steps []int32
	first []int32
	shift uint
}

// reset empties the counter for positions [0, n) and up to m steps.
func (c *stepCounter) reset(n, m int) {
	c.steps = c.steps[:0]
	c.shift = 0
	for n>>c.shift > 8*(m+1) {
		c.shift++
	}
	c.first = c.first[:0]
	for b := 0; b <= (n-1)>>c.shift; b++ {
		c.first = append(c.first, 0)
	}
}

// index fills the bucket table once the steps are appended.
func (c *stepCounter) index() {
	j := 0
	for b := range c.first {
		for j < len(c.steps) && int(c.steps[j]) < b<<c.shift {
			j++
		}
		c.first[b] = int32(j)
	}
}

func (c *stepCounter) count(r int) int {
	j := int(c.first[r>>c.shift])
	for j < len(c.steps) && int(c.steps[j]) <= r {
		j++
	}
	return j
}

// suffixCounts turns a side×side histogram, in place, into
// t[i·side+j] = #(points in cells i' >= i, j' >= j). The histogram's
// last row and column must be empty; they stay zero.
func suffixCounts(t []int32, side int) {
	for i := side - 2; i >= 0; i-- {
		row := t[i*side : (i+1)*side]
		below := t[(i+1)*side : (i+2)*side]
		var run int32 // this row's cells j' >= j
		for j := side - 2; j >= 0; j-- {
			run += row[j]
			row[j] = run + below[j]
		}
	}
}

// cellCounts returns a sample's four quadrantOf counts at an origin with
// strict W ranks (sx, sy), read from the sample's suffix-count table t.
func cellCounts(t []int32, side, total, sx, sy int) [4]int {
	i, j := (sx+1)*side, sy+1
	right, above, both := int(t[i]), int(t[j]), int(t[i+j])
	return [4]int{total - right - above + both, above - both, right - both, both}
}

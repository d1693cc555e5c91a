package geo

import (
	"cmp"
	"slices"
)

// Multiset is a history of places held as its distinct points, each
// with the number of times it occurs. A Mobike CSV decodes every row to
// the centre of a 7-character geohash cell, so a million trips are a few
// hundred places; holding each place once lets the loader, the offline
// plan and the drift test scale with places rather than rows. A history
// of continuous points is a Multiset with every count equal to 1.
//
// A Multiset is canonical: its points ascend by X, then by Y (in
// cmp.Compare order), no point occurs twice and every count is at
// least 1. Two Multisets of the same places and counts are therefore
// equal element for element, whatever order the places arrived in. The
// zero value is the empty multiset. The slices a Multiset returns are
// shared with it and must not be modified.
type Multiset struct {
	pts    []Point
	counts []int
}

// FoldPoints returns the multiset of pts, each occurrence counting
// once. pts is not modified.
func FoldPoints(pts []Point) Multiset {
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, comparePoints)
	counts := make([]int, len(sorted))
	for i := range counts {
		counts[i] = 1
	}
	return merge(sorted, counts)
}

// FoldWeighted returns the multiset in which pts[i] occurs counts[i]
// times, equal points merged. It takes both slices over and reorders
// them. The slices must have equal length and every count must be at
// least 1; FoldWeighted panics otherwise.
func FoldWeighted(pts []Point, counts []int) Multiset {
	if len(pts) != len(counts) {
		panic("geo: FoldWeighted: points and counts differ in length")
	}
	type weighted struct {
		p Point
		n int
	}
	ws := make([]weighted, len(pts))
	for i, p := range pts {
		if counts[i] < 1 {
			panic("geo: FoldWeighted: count below 1")
		}
		ws[i] = weighted{p, counts[i]}
	}
	slices.SortFunc(ws, func(a, b weighted) int { return comparePoints(a.p, b.p) })
	for i, w := range ws {
		pts[i], counts[i] = w.p, w.n
	}
	return merge(pts, counts)
}

// merge folds each run of equal points in sorted pts into its first,
// summing the run's counts, in place.
func merge(pts []Point, counts []int) Multiset {
	n := 0
	for i, p := range pts {
		if n > 0 && comparePoints(p, pts[n-1]) == 0 {
			counts[n-1] += counts[i]
			continue
		}
		pts[n], counts[n] = p, counts[i]
		n++
	}
	return Multiset{pts: pts[:n], counts: counts[:n]}
}

func comparePoints(a, b Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// Len returns the number of distinct points.
func (m Multiset) Len() int { return len(m.pts) }

// Total returns the number of occurrences: the sum of the counts.
func (m Multiset) Total() int {
	n := 0
	for _, c := range m.counts {
		n += c
	}
	return n
}

// Points returns the distinct points in canonical order.
func (m Multiset) Points() []Point { return m.pts }

// Counts returns each point's count, aligned with Points.
func (m Multiset) Counts() []int { return m.counts }

// Split partitions m by part, which maps every point to an index in
// [0, n) and must map a point the same way each time it is called:
// part i holds the points mapped to i with their counts. Each part is a
// canonical Multiset, so it equals the fold of the occurrences that
// route to it. A first pass sizes the parts, so the split allocates
// m.Len() points and counts once, shared by the parts; an empty part is
// the zero Multiset.
func (m Multiset) Split(n int, part func(Point) int) []Multiset {
	ends := make([]int, n)
	for _, p := range m.pts {
		ends[part(p)]++
	}
	for i := 1; i < n; i++ {
		ends[i] += ends[i-1]
	}
	pts := make([]Point, len(m.pts))
	counts := make([]int, len(m.pts))
	parts := make([]Multiset, n)
	start := 0
	for i, end := range ends {
		if end > start {
			parts[i] = Multiset{pts: pts[start:start:end], counts: counts[start:start:end]}
		}
		start = end
	}
	for i, p := range m.pts {
		s := &parts[part(p)]
		s.pts = append(s.pts, p)
		s.counts = append(s.counts, m.counts[i])
	}
	return parts
}

package geo

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkCanonical requires m's points to ascend strictly by (X, Y) and
// every count to be at least 1.
func checkCanonical(t *testing.T, m Multiset) {
	t.Helper()
	if len(m.Points()) != len(m.Counts()) {
		t.Fatalf("%d points, %d counts", len(m.Points()), len(m.Counts()))
	}
	for i, p := range m.Points() {
		if m.Counts()[i] < 1 {
			t.Fatalf("point %d %v has count %d", i, p, m.Counts()[i])
		}
		if i > 0 && comparePoints(m.Points()[i-1], p) >= 0 {
			t.Fatalf("points %d and %d out of order: %v, %v", i-1, i, m.Points()[i-1], p)
		}
	}
}

// TestFoldPoints: the fold of any arrangement of the same rows is the
// same canonical multiset, and its counts sum to the rows.
func TestFoldPoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var rows []Point
	for i := 0; i < 2000; i++ {
		// A 12×12 lattice: most points repeat, and ties in x or y
		// abound.
		rows = append(rows, Pt(float64(rng.IntN(12))*50, float64(rng.IntN(12))*50))
	}
	keep := slices.Clone(rows)
	m := FoldPoints(rows)
	if !slices.Equal(rows, keep) {
		t.Fatal("FoldPoints modified its input")
	}
	checkCanonical(t, m)
	if m.Total() != len(rows) {
		t.Fatalf("total %d, want %d", m.Total(), len(rows))
	}
	want := map[Point]int{}
	for _, p := range rows {
		want[p]++
	}
	if m.Len() != len(want) {
		t.Fatalf("%d places, want %d", m.Len(), len(want))
	}
	for i, p := range m.Points() {
		if m.Counts()[i] != want[p] {
			t.Fatalf("%v counted %d, want %d", p, m.Counts()[i], want[p])
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	again := FoldPoints(rows)
	if !slices.Equal(again.Points(), m.Points()) || !slices.Equal(again.Counts(), m.Counts()) {
		t.Fatal("the fold depends on row order")
	}
	if e := FoldPoints(nil); e.Len() != 0 || e.Total() != 0 {
		t.Fatalf("empty fold: %d places, %d total", e.Len(), e.Total())
	}
}

// TestFoldWeighted: weighted entries fold like their rows, repeated
// points merging their counts, and signed zeros count as one point.
func TestFoldWeighted(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := FoldWeighted(
		[]Point{Pt(3, 1), Pt(1, 2), Pt(3, 1), Pt(1, 1), Pt(0, 0), Pt(negZero, 0)},
		[]int{2, 5, 7, 1, 3, 4},
	)
	checkCanonical(t, m)
	wantPts := []Point{Pt(0, 0), Pt(1, 1), Pt(1, 2), Pt(3, 1)}
	wantCounts := []int{7, 1, 5, 9}
	if !slices.Equal(m.Points(), wantPts) || !slices.Equal(m.Counts(), wantCounts) {
		t.Fatalf("fold = %v %v, want %v %v", m.Points(), m.Counts(), wantPts, wantCounts)
	}
	if m.Total() != 22 {
		t.Fatalf("total %d, want 22", m.Total())
	}
	for _, bad := range []func(){
		func() { FoldWeighted([]Point{Pt(0, 0)}, nil) },
		func() { FoldWeighted([]Point{Pt(0, 0)}, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("FoldWeighted accepted a malformed history")
				}
			}()
			bad()
		}()
	}
}

// TestMultisetSplit: each part is the fold of the rows routed to it.
func TestMultisetSplit(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var rows []Point
	for i := 0; i < 1000; i++ {
		rows = append(rows, Pt(float64(rng.IntN(20)), float64(rng.IntN(20))))
	}
	route := func(p Point) int { return int(p.X+3*p.Y) % 5 }
	byPart := make([][]Point, 5)
	for _, p := range rows {
		byPart[route(p)] = append(byPart[route(p)], p)
	}
	parts := FoldPoints(rows).Split(5, route)
	for i, part := range parts {
		checkCanonical(t, part)
		want := FoldPoints(byPart[i])
		if !slices.Equal(part.Points(), want.Points()) || !slices.Equal(part.Counts(), want.Counts()) {
			t.Fatalf("part %d differs from the fold of its rows", i)
		}
	}
}

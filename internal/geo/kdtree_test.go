package geo

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func randomPts(seed uint64, n int) []Point {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*5000, rng.Float64()*5000)
	}
	return pts
}

func TestKDTreeEmpty(t *testing.T) {
	tr := BuildKDTree(nil)
	if tr.Len() != 0 {
		t.Errorf("Len=%d", tr.Len())
	}
	idx, d2 := tr.nearest2(Pt(1, 1))
	if idx != -1 || !math.IsInf(d2, 1) {
		t.Errorf("empty nearest: %d, %v", idx, d2)
	}
}

func TestKDTreeMatchesLinearNearest(t *testing.T) {
	pts := randomPts(3, 300)
	tr := BuildKDTree(pts)
	queries := randomPts(4, 500)
	for _, q := range queries {
		gi, gd := Nearest(q, pts)
		ti, td2 := tr.nearest2(q)
		if td := math.Sqrt(td2); gi != ti || math.Abs(gd-td) > 1e-9 {
			t.Fatalf("query %v: linear (%d, %v) vs tree (%d, %v)", q, gi, gd, ti, td)
		}
	}
}

func TestKDTreeDuplicatePointsTieToLowestIndex(t *testing.T) {
	pts := []Point{Pt(10, 10), Pt(5, 5), Pt(10, 10), Pt(5, 5)}
	tr := BuildKDTree(pts)
	idx, d2 := tr.nearest2(Pt(10, 10))
	if idx != 0 || d2 != 0 {
		t.Errorf("got (%d, %v), want (0, 0)", idx, d2)
	}
	idx, _ = tr.nearest2(Pt(5.4, 5))
	if idx != 1 {
		t.Errorf("got %d, want 1", idx)
	}
}

func TestKDTreeDoesNotAliasInput(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(2, 2)}
	tr := BuildKDTree(pts)
	pts[0] = Pt(999, 999)
	if tr.At(0) == Pt(999, 999) {
		t.Error("tree aliases caller slice")
	}
}

func TestDynamicIndexInsertAndQuery(t *testing.T) {
	d := NewDynamicIndex(nil)
	if idx, dist := d.Nearest(Pt(0, 0)); idx != -1 || !math.IsInf(dist, 1) {
		t.Error("empty index should report no neighbour")
	}
	pts := randomPts(7, 400)
	for i, p := range pts {
		if got := d.Insert(p); got != i {
			t.Fatalf("insert %d returned index %d", i, got)
		}
	}
	if d.Len() != len(pts) {
		t.Fatalf("Len=%d", d.Len())
	}
	for i, p := range pts {
		if d.At(i) != p {
			t.Fatalf("At(%d) mismatch", i)
		}
	}
	for _, q := range randomPts(8, 300) {
		gi, gd := Nearest(q, pts)
		ti, td := d.Nearest(q)
		if gi != ti || math.Abs(gd-td) > 1e-9 {
			t.Fatalf("query %v: linear (%d, %v) vs index (%d, %v)", q, gi, gd, ti, td)
		}
	}
}

func TestDynamicIndexPointsSnapshot(t *testing.T) {
	d := NewDynamicIndex([]Point{Pt(1, 2)})
	d.Insert(Pt(3, 4))
	snap := d.Points()
	if len(snap) != 2 || snap[0] != Pt(1, 2) || snap[1] != Pt(3, 4) {
		t.Errorf("snapshot=%v", snap)
	}
	snap[0] = Pt(9, 9)
	if d.At(0) == Pt(9, 9) {
		t.Error("Points exposes internal state")
	}
}

func TestQuickDynamicIndexAgreesWithLinear(t *testing.T) {
	property := func(raw []uint32, qx, qy uint32) bool {
		if len(raw) > 80 {
			raw = raw[:80]
		}
		pts := make([]Point, 0, len(raw))
		d := NewDynamicIndex(nil)
		for _, r := range raw {
			p := Pt(float64(r%4000), float64((r>>16)%4000))
			pts = append(pts, p)
			d.Insert(p)
		}
		q := Pt(float64(qx%4000), float64(qy%4000))
		gi, gd := Nearest(q, pts)
		ti, td := d.Nearest(q)
		if gi < 0 {
			return ti < 0
		}
		return gi == ti && math.Abs(gd-td) < 1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDynamicIndexDifferential10k is the decision-identity proof for the
// placement hot path: over a 10k point set — built incrementally and
// salted with exact duplicates — the index must return
// the same winning index and the bit-identical distance as the linear
// geo.Nearest scan for every query.
func TestDynamicIndexDifferential10k(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	d := NewDynamicIndex(nil)
	pts := make([]Point, 0, 10000)
	for len(pts) < 10000 {
		var p Point
		if len(pts) > 0 && rng.Float64() < 0.1 {
			p = pts[rng.IntN(len(pts))] // exact duplicate: tie on distance
		} else {
			p = Pt(rng.Float64()*5000, rng.Float64()*5000)
		}
		pts = append(pts, p)
		d.Insert(p)
	}

	check := func(stage string) {
		t.Helper()
		queries := make([]Point, 0, 2000)
		for i := 0; i < 1500; i++ {
			queries = append(queries, Pt(rng.Float64()*5000, rng.Float64()*5000))
		}
		for i := 0; i < 500; i++ {
			// Queries exactly on indexed points force zero-distance ties.
			queries = append(queries, pts[rng.IntN(len(pts))])
		}
		for _, q := range queries {
			gi, gd := Nearest(q, pts)
			ti, td := d.Nearest(q)
			if gi != ti || gd != td {
				t.Fatalf("%s: query %v: linear (%d, %v) vs index (%d, %v)", stage, q, gi, gd, ti, td)
			}
		}
	}
	check("after inserts")

	// Fresh inserts keep stable indices and the identity.
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64()*5000, rng.Float64()*5000)
		pts = append(pts, p)
		if got := d.Insert(p); got != len(pts)-1 {
			t.Fatalf("insert returned %d, want %d", got, len(pts)-1)
		}
	}
	check("after more inserts")
}

// linearWithin is the oracle for KDTree.WithinDist2: ascending-index
// scan with the same strict squared-distance membership test.
func linearWithin(q Point, r2 float64, pts []Point) []int32 {
	var out []int32
	if !(r2 > 0) {
		return out
	}
	for i, p := range pts {
		if q.Dist2(p) < r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameIndexSet(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d members, want %d (got %v want %v)", label, len(got), len(want), got, want)
	}
	seen := make(map[int32]bool, len(got))
	for _, i := range got {
		if seen[i] {
			t.Fatalf("%s: index %d returned twice", label, i)
		}
		seen[i] = true
	}
	for _, i := range want {
		if !seen[i] {
			t.Fatalf("%s: missing index %d", label, i)
		}
	}
}

func TestKDTreeWithinMatchesLinear(t *testing.T) {
	pts := randomPts(21, 400)
	// Salt with exact duplicates so boundary membership sees ties.
	pts = append(pts, pts[0], pts[17], pts[250])
	tr := BuildKDTree(pts)
	for qi, q := range randomPts(22, 200) {
		for _, r := range []float64{0, 1, 50, 400, 2500, 10000} {
			got := tr.WithinDist2(q, r*r, nil)
			want := linearWithin(q, r*r, pts)
			sameIndexSet(t, "query", got, want)
			_ = qi
		}
	}
}

func TestKDTreeWithinEdgeCases(t *testing.T) {
	if got := BuildKDTree(nil).WithinDist2(Pt(0, 0), 100, nil); len(got) != 0 {
		t.Errorf("empty tree: %v", got)
	}
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(0, 0)}
	tr := BuildKDTree(pts)
	// r2 <= 0 and NaN are empty by definition (strict inequality).
	for _, r2 := range []float64{0, -1, math.NaN()} {
		if got := tr.WithinDist2(Pt(0, 0), r2, nil); len(got) != 0 {
			t.Errorf("r2=%v: %v", r2, got)
		}
	}
	// Strictness: a point at exactly squared distance r2 is not a member.
	sameIndexSet(t, "r2=25 exact boundary", tr.WithinDist2(Pt(0, 0), 25, nil), []int32{0, 2})
	sameIndexSet(t, "r2 just above", tr.WithinDist2(Pt(0, 0), math.Nextafter(25, 26), nil), []int32{0, 1, 2})
	// dst is appended to, preserving existing contents.
	dst := []int32{99}
	dst = tr.WithinDist2(Pt(3, 4), 1, dst)
	sameIndexSet(t, "append to dst", dst, []int32{99, 1})
}

func TestKDTreeWithinDeterministicOrder(t *testing.T) {
	pts := randomPts(23, 300)
	tr := BuildKDTree(pts)
	q := Pt(2500, 2500)
	first := tr.WithinDist2(q, 1500*1500, nil)
	for run := 0; run < 5; run++ {
		again := tr.WithinDist2(q, 1500*1500, nil)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d members, want %d", run, len(again), len(first))
		}
		for k := range first {
			if again[k] != first[k] {
				t.Fatalf("run %d: order diverged at %d: %d vs %d", run, k, again[k], first[k])
			}
		}
	}
}

func TestQuickKDTreeWithinAgreesWithLinear(t *testing.T) {
	property := func(raw []uint32, qx, qy, rr uint32) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		pts := make([]Point, 0, len(raw))
		for _, r := range raw {
			// Quantised coordinates force frequent exact boundary ties.
			pts = append(pts, Pt(float64(r%50), float64((r>>16)%50)))
		}
		tr := BuildKDTree(pts)
		q := Pt(float64(qx%50), float64(qy%50))
		radius := float64(rr % 80)
		got := tr.WithinDist2(q, radius*radius, nil)
		want := linearWithin(q, radius*radius, pts)
		if len(got) != len(want) {
			return false
		}
		seen := make(map[int32]bool, len(got))
		for _, i := range got {
			seen[i] = true
		}
		for _, i := range want {
			if !seen[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKDTreeWithin10k(b *testing.B) {
	tr := BuildKDTree(randomPts(11, 10000))
	q := randomPts(12, 1)[0]
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tr.WithinDist2(q, 250*250, dst[:0])
	}
}

func BenchmarkLinearNearest10k(b *testing.B) {
	pts := randomPts(11, 10000)
	q := randomPts(12, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Nearest(q, pts)
	}
}

func BenchmarkKDTreeNearest10k(b *testing.B) {
	tr := BuildKDTree(randomPts(11, 10000))
	q := randomPts(12, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.nearest2(q)
	}
}

// linearKNearestD2 is the oracle for KNearest's distance multiset: the
// min(k, n) smallest squared distances from q, ascending.
func linearKNearestD2(q Point, k int, pts []Point) []float64 {
	d2s := make([]float64, len(pts))
	for i, p := range pts {
		d2s[i] = q.Dist2(p)
	}
	sort.Float64s(d2s)
	if k > len(d2s) {
		k = len(d2s)
	}
	return d2s[:k]
}

func TestKDTreeKNearestMatchesLinear(t *testing.T) {
	pts := randomPts(31, 350)
	// Exact duplicates force ties at the k-th distance.
	pts = append(pts, pts[3], pts[40], pts[40], pts[99])
	tr := BuildKDTree(pts)
	var idx []int32
	var d2s []float64
	for _, k := range []int{1, 2, 7, 64, len(pts), len(pts) + 10} {
		for _, q := range []Point{Pt(0, 0), Pt(2500, 2500), pts[40], Pt(-100, 6000)} {
			idx, d2s = tr.KNearest(q, k, idx, d2s)
			want := linearKNearestD2(q, k, pts)
			if len(idx) != len(want) || len(d2s) != len(want) {
				t.Fatalf("k=%d q=%v: got %d results, want %d", k, q, len(idx), len(want))
			}
			seen := make(map[int32]bool, len(idx))
			got := make([]float64, len(d2s))
			for i, ix := range idx {
				if seen[ix] {
					t.Fatalf("k=%d q=%v: index %d returned twice", k, q, ix)
				}
				seen[ix] = true
				if d := q.Dist2(pts[ix]); math.Float64bits(d) != math.Float64bits(d2s[i]) {
					t.Fatalf("k=%d q=%v: stored d2 %v != recomputed %v for index %d", k, q, d2s[i], d, ix)
				}
				got[i] = d2s[i]
			}
			sort.Float64s(got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d q=%v: distance multiset diverges at %d: got %v want %v", k, q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestKDTreeKNearestDeterministicAndReusable(t *testing.T) {
	pts := randomPts(57, 600)
	tr := BuildKDTree(pts)
	q := Pt(1234, 4321)
	firstIdx, firstD2 := tr.KNearest(q, 48, nil, nil)
	wantIdx := append([]int32(nil), firstIdx...)
	wantD2 := append([]float64(nil), firstD2...)
	idx, d2s := firstIdx, firstD2
	for round := 0; round < 5; round++ {
		// Reused buffers must come back identical, entry for entry.
		idx, d2s = tr.KNearest(q, 48, idx, d2s)
		for i := range wantIdx {
			if idx[i] != wantIdx[i] || math.Float64bits(d2s[i]) != math.Float64bits(wantD2[i]) {
				t.Fatalf("round %d: result diverged at %d: (%d, %v) vs (%d, %v)",
					round, i, idx[i], d2s[i], wantIdx[i], wantD2[i])
			}
		}
	}
	if gotIdx, gotD2 := tr.KNearest(q, 0, nil, nil); len(gotIdx) != 0 || len(gotD2) != 0 {
		t.Fatalf("k=0: expected empty result, got %d/%d entries", len(gotIdx), len(gotD2))
	}
	if gotIdx, _ := BuildKDTree(nil).KNearest(q, 5, nil, nil); len(gotIdx) != 0 {
		t.Fatalf("empty tree: expected no results, got %d", len(gotIdx))
	}
}

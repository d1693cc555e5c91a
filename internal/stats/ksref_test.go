package stats

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/geo"
)

// checkKSReference queries ref with w and requires the Float64bits of
// Peacock2DFast(h, w), and of the per-origin oracle when the samples are
// small enough for its quadratic recount.
func checkKSReference(t *testing.T, name string, ref *KSReference, h, w []geo.Point) {
	t.Helper()
	got, err := ref.Statistic(w)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := Peacock2DFast(h, w)
	if err != nil {
		t.Fatalf("%s: Peacock2DFast: %v", name, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: D=%v, Peacock2DFast %v (bit-exact)", name, got, want)
	}
	if len(h)*(len(h)+len(w)) > 4_000_000 {
		return
	}
	oracle, err := peacock2DFastReference(h, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(oracle) {
		t.Errorf("%s: D=%v, per-origin oracle %v (bit-exact)", name, got, oracle)
	}
}

func TestKSReferenceMatchesPeacock2DFast(t *testing.T) {
	type pair struct {
		name string
		h, w []geo.Point
	}
	var cases []pair
	for _, sz := range []struct{ nh, nw int }{
		{1, 1}, {1, 8}, {8, 8}, {5, 3}, {40, 8}, {120, 60}, {2000, 100}, {12800, 100}, {50, 300},
	} {
		h, w := ksSamplePair(uint64(31+sz.nh+sz.nw), sz.nh, sz.nw)
		cases = append(cases,
			pair{fmt.Sprintf("uniform/%dx%d", sz.nh, sz.nw), h, w},
			pair{fmt.Sprintf("lattice/%dx%d", sz.nh, sz.nw), snapped(h, 100), snapped(w, 100)})
	}
	h, w := ksSamplePair(9, 400, 100)
	// Origins on the >= boundary: window points that sit exactly on an
	// H point's x or y, one axis at a time.
	boundary := make([]geo.Point, 0, 100)
	for i := 0; i < 50; i++ {
		boundary = append(boundary, geo.Pt(h[i].X, w[i].Y), geo.Pt(w[i].X, h[i+50].Y))
	}
	oneX := func(p geo.Point) geo.Point { return geo.Pt(42, p.Y) }
	oneY := func(p geo.Point) geo.Point { return geo.Pt(p.X, 42) }
	onePoint := func(geo.Point) geo.Point { return geo.Pt(42, 42) }
	cases = append(cases,
		pair{"identical", h, h},
		pair{"window-repeats-history", h, append(append([]geo.Point(nil), h[:60]...), h[:40]...)},
		pair{"boundary", h, boundary},
		pair{"coarse-lattice", snapped(h, 250), snapped(w, 250)},
		pair{"disjoint", h, SamplePoints(NewRNG(6), UniformDist{Box: geo.Square(geo.Pt(5000, 5000), 10)}, 8)},
		pair{"one-point-history", h[:1], w},
		pair{"one-point-history-in-window", h[:1], append([]geo.Point{h[0]}, w[:7]...)},
		pair{"one-x", mapped(h, oneX), mapped(w, oneX)},
		pair{"one-y", mapped(h, oneY), mapped(w, oneY)},
		pair{"one-point", mapped(h, onePoint), mapped(w, onePoint)},
		pair{"signed-zeros", []geo.Point{geo.Pt(0, 0), geo.Pt(math.Copysign(0, -1), 1), geo.Pt(1, math.Copysign(0, -1))},
			[]geo.Point{geo.Pt(math.Copysign(0, -1), math.Copysign(0, -1)), geo.Pt(0, 1), geo.Pt(-1, 0)}},
	)
	for _, tc := range cases {
		ref, err := NewKSReference(geo.FoldPoints(tc.h))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkKSReference(t, tc.name, ref, tc.h, tc.w)
	}
}

// TestKSReferenceScratchReuse queries one reference with a sequence of
// windows of varying size and content, as a placer does over its life:
// every answer must match a fresh Peacock2DFast, so no scratch from an
// earlier query may leak into a later one.
func TestKSReferenceScratchReuse(t *testing.T) {
	h, _ := ksSamplePair(11, 3000, 1)
	lattice := snapped(h, 100)
	for _, hist := range [][]geo.Point{h, lattice} {
		ref, err := NewKSReference(geo.FoldPoints(hist))
		if err != nil {
			t.Fatal(err)
		}
		rng := NewRNG(12)
		for i, nw := range []int{100, 8, 100, 37, 1, 250, 100, 8, 100} {
			center := geo.Pt(rng.Float64()*800, rng.Float64()*800)
			w := SamplePoints(rng, UniformDist{Box: geo.Square(center, 600)}, nw)
			if i%2 == 1 {
				w = snapped(w, 100)
			}
			for j := 0; j < len(w) && j < 10; j++ {
				w[j] = hist[(i*37+j)%len(hist)]
			}
			checkKSReference(t, fmt.Sprintf("query %d (|W|=%d)", i, nw), ref, hist, w)
		}
	}
}

func TestKSReferenceErrors(t *testing.T) {
	ok := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	if _, err := NewKSReference(geo.Multiset{}); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty history: want ErrEmptySample, got %v", err)
	}
	ref, err := NewKSReference(geo.FoldPoints(ok))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Statistic(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty window: want ErrEmptySample, got %v", err)
	}
	for _, bad := range []geo.Point{
		geo.Pt(math.NaN(), 0), geo.Pt(0, math.NaN()), geo.Pt(math.Inf(1), 0), geo.Pt(0, math.Inf(-1)),
	} {
		withBad := []geo.Point{geo.Pt(2, 2), bad}
		if _, err := NewKSReference(geo.FoldPoints(withBad)); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("history holds %v: want ErrNonFiniteSample, got %v", bad, err)
		}
		if _, err := ref.Statistic(withBad); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("window holds %v: want ErrNonFiniteSample, got %v", bad, err)
		}
	}
	// A rejected window must not poison the next query.
	checkKSReference(t, "after errors", ref, ok, []geo.Point{geo.Pt(0.5, 2), geo.Pt(1, 0)})
}

// TestKSReferenceQueryAllocs: once a reference has answered one query at
// the window size, later queries at that size or smaller allocate
// nothing.
func TestKSReferenceQueryAllocs(t *testing.T) {
	h, w := ksSamplePair(13, 12800, 100)
	ref, err := NewKSReference(geo.FoldPoints(h))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Statistic(w); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ref.Statistic(w); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Statistic(w[:8]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warmed-up query allocates %v times, want 0", allocs)
	}
}

// ksReferenceBuildBytesPerPoint is the stated bound on everything
// NewKSReference allocates, temporaries included, per distinct history
// point: 8 B of sorted y, 4 B of y prefix counts, 16 B of origins and
// 4 B of quadrant counts are kept; the sweep's Fenwick tree (4 B) is
// temporary. The points arrive sorted, so the build sorts only y.
const ksReferenceBuildBytesPerPoint = 48

func TestKSReferenceBuildMemoryBound(t *testing.T) {
	const n = 200_000
	h, _ := ksSamplePair(14, n, 1)
	places := geo.FoldPoints(h)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ref, err := NewKSReference(places)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("build allocated %.1f B per history point", perPoint)
	if perPoint > ksReferenceBuildBytesPerPoint {
		t.Errorf("build allocated %.1f B per history point, bound %d", perPoint, ksReferenceBuildBytesPerPoint)
	}
	runtime.KeepAlive(ref)
}

// FuzzKSReference pins the reference to Peacock2DFast and the per-origin
// oracle. The first two bytes pick |H| and |W| (at most 64 each); each
// following byte is one point on a 16×16 lattice, so ties and >=
// boundaries dominate. The third byte picks a second window, shifted
// along the same points, that the same reference answers next.
func FuzzKSReference(f *testing.F) {
	f.Add([]byte{3, 2, 0x00, 0x11, 0x22, 0x12, 0x21})
	f.Add([]byte{0x40, 0x08, 0xff, 0x0f, 0xf0, 0x00, 0x88})
	f.Add([]byte{1, 1, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nh, nw, shift := 1+int(data[0])%64, 1+int(data[1])%64, int(data[2])%16
		data = data[3:]
		pts := make([]geo.Point, nh+nw+shift)
		for i := range pts {
			var v byte // points past the end of data sit at (-8, -8)
			if i < len(data) {
				v = data[i]
			}
			pts[i] = geo.Pt(float64(v>>4)-8, float64(v&0x0f)-8)
		}
		h := pts[:nh]
		ref, err := NewKSReference(geo.FoldPoints(h))
		if err != nil {
			t.Fatal(err)
		}
		checkKSReference(t, "first window", ref, h, pts[nh:nh+nw])
		checkKSReference(t, "second window", ref, h, pts[nh+shift:])
	})
}

// expand lists the multiset's points once per occurrence, in canonical
// order: the history Peacock2DFast sees.
func expand(h geo.Multiset) []geo.Point {
	var out []geo.Point
	for i, p := range h.Points() {
		for c := 0; c < h.Counts()[i]; c++ {
			out = append(out, p)
		}
	}
	return out
}

// FuzzKSReferenceWeighted pins the reference over a weighted history to
// Peacock2DFast on the same history expanded to one point per
// occurrence, bit for bit. The first three bytes pick the number of
// (point, count) entries (at most 32), |W| (at most 64) and a window
// shift; then each entry takes two bytes, a point on a 16×16 lattice
// and a count of 1 to 256, and the window points follow, one byte each.
// Entries may repeat a point, so the fold's merging is under test too.
func FuzzKSReferenceWeighted(f *testing.F) {
	f.Add([]byte{4, 3, 1, 0x00, 0xff, 0x00, 0x10, 0x11, 0x00, 0x22, 0x03, 0x00, 0x11, 0x22})
	// Duplicate-heavy: one place, many copies, and the window on it.
	f.Add([]byte{3, 8, 0, 0x77, 0xff, 0x77, 0xff, 0x77, 0x80, 0x77, 0x77, 0x76, 0x67, 0x78})
	// Ties in x and in y: a column and a row of places through one point.
	f.Add([]byte{6, 6, 2, 0x30, 0x05, 0x31, 0x40, 0x32, 0x00, 0x03, 0x09, 0x13, 0x7f, 0x23, 0x01,
		0x33, 0x30, 0x03, 0x13, 0x31, 0x22})
	// Lattice-heavy: every entry on a coarse 4×4 sublattice.
	f.Add([]byte{16, 16, 5, 0x00, 0x01, 0x04, 0x02, 0x08, 0x03, 0x0c, 0x04, 0x40, 0x05, 0x44, 0x06,
		0x48, 0x07, 0x4c, 0x08, 0x80, 0x09, 0x84, 0x0a, 0x88, 0x0b, 0x8c, 0x0c, 0xc0, 0x0d, 0xc4, 0x0e,
		0xc8, 0x0f, 0xcc, 0xff, 0x00, 0x44, 0x88, 0xcc, 0x04, 0x40})
	lattice := func(v byte) geo.Point { return geo.Pt(float64(v>>4)-8, float64(v&0x0f)-8) }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ne, nw, shift := 1+int(data[0])%32, 1+int(data[1])%64, int(data[2])%16
		data = data[3:]
		at := func(i int) byte { // bytes past the end of data read as 0
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pts := make([]geo.Point, ne)
		counts := make([]int, ne)
		var rows []geo.Point
		for i := range pts {
			pts[i], counts[i] = lattice(at(2*i)), 1+int(at(2*i+1))
			for c := 0; c < counts[i]; c++ {
				rows = append(rows, pts[i])
			}
		}
		h := geo.FoldWeighted(pts, counts)
		if h.Total() != len(rows) {
			t.Fatalf("fold holds %d occurrences, want %d", h.Total(), len(rows))
		}
		window := make([]geo.Point, nw+shift)
		for i := range window {
			window[i] = lattice(at(2*ne + i))
		}
		ref, err := NewKSReference(h)
		if err != nil {
			t.Fatal(err)
		}
		checkKSReference(t, "first window", ref, rows, window[:nw])
		checkKSReference(t, "second window", ref, rows, window[shift:])
		// Peacock2DFast on the canonical expansion: row order must not
		// matter either.
		checkKSReference(t, "expanded", ref, expand(h), window[:nw])
	})
}

// TestKSReferenceTooLarge: counts past int32 are refused, not wrapped.
func TestKSReferenceTooLarge(t *testing.T) {
	h := geo.FoldWeighted([]geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}, []int{1 << 30, 1 << 30})
	if _, err := NewKSReference(h); !errors.Is(err, ErrSampleTooLarge) {
		t.Fatalf("2^31 occurrences: want ErrSampleTooLarge, got %v", err)
	}
}

// BenchmarkKSReference times one drift test against a prebuilt reference
// on ksSamplePair samples, plus one build.
func BenchmarkKSReference(b *testing.B) {
	for _, n := range []int{100, 500, 12800} {
		h, w := ksSamplePair(uint64(n), n, 100)
		places := geo.FoldPoints(h)
		ref, err := NewKSReference(places)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("query/H=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ref.Statistic(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("build/H=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewKSReference(places); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

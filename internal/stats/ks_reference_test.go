package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
)

// peacock2DFastReference is the per-origin recount the Peacock2DFast
// sweep replaces: every pooled origin, a's points first, then b's,
// re-counts every point into its quadrant. Peacock2DFast must reproduce
// it bit for bit.
func peacock2DFastReference(a, b []geo.Point) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmptySample
	}
	var d float64
	for _, origin := range a {
		if diff := quadrantMaxDiff(a, b, origin.X, origin.Y); diff > d {
			d = diff
		}
	}
	for _, origin := range b {
		if diff := quadrantMaxDiff(a, b, origin.X, origin.Y); diff > d {
			d = diff
		}
	}
	return d, nil
}

func ksSamplePair(seed uint64, na, nb int) (a, b []geo.Point) {
	rng := NewRNG(seed)
	box := geo.Square(geo.Pt(0, 0), 1000)
	a = SamplePoints(rng, UniformDist{Box: box}, na)
	// b drawn from a shifted box so D is neither 0 nor 1, plus a few
	// duplicated points from a to exercise tied coordinates.
	b = SamplePoints(rng, UniformDist{Box: geo.Square(geo.Pt(300, 300), 1000)}, nb)
	for i := 0; i < len(b) && i < len(a)/10; i++ {
		b[i] = a[i]
	}
	return a, b
}

// mapped returns f applied to every point of pts.
func mapped(pts []geo.Point, f func(geo.Point) geo.Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = f(p)
	}
	return out
}

// snapped rounds every coordinate down to a multiple of step, so equal-x
// groups and points on an origin's >= boundary are common.
func snapped(pts []geo.Point, step float64) []geo.Point {
	return mapped(pts, func(p geo.Point) geo.Point {
		return geo.Pt(math.Floor(p.X/step)*step, math.Floor(p.Y/step)*step)
	})
}

func TestPeacock2DFastMatchesReference(t *testing.T) {
	type pair struct {
		name string
		a, b []geo.Point
	}
	var cases []pair
	for _, sz := range []struct{ na, nb int }{
		{1, 1}, {1, 50}, {50, 1}, {5, 3}, {40, 60}, {120, 120}, {2000, 100}, {100, 2000},
	} {
		a, b := ksSamplePair(uint64(17+sz.na+sz.nb), sz.na, sz.nb)
		cases = append(cases, pair{fmt.Sprintf("uniform/%dx%d", sz.na, sz.nb), a, b})
		cases = append(cases, pair{fmt.Sprintf("lattice/%dx%d", sz.na, sz.nb), snapped(a, 100), snapped(b, 100)})
	}
	a, b := ksSamplePair(5, 300, 200)
	cases = append(cases,
		pair{"identical", a, a},
		pair{"shared-points", a, append(append([]geo.Point(nil), a[:150]...), b[:50]...)},
		pair{"disjoint", a, SamplePoints(NewRNG(6), UniformDist{Box: geo.Square(geo.Pt(5000, 5000), 10)}, 80)},
		pair{"coarse-lattice", snapped(a, 250), snapped(b, 250)},
	)
	oneX := func(p geo.Point) geo.Point { return geo.Pt(42, p.Y) }
	oneY := func(p geo.Point) geo.Point { return geo.Pt(p.X, 42) }
	onePoint := func(geo.Point) geo.Point { return geo.Pt(42, 42) }
	cases = append(cases,
		pair{"one-x", mapped(a, oneX), mapped(b, oneX)},
		pair{"one-y", mapped(a, oneY), mapped(b, oneY)},
		pair{"one-point", mapped(a, onePoint), mapped(b, onePoint)},
		pair{"signed-zeros", []geo.Point{geo.Pt(0, 0), geo.Pt(math.Copysign(0, -1), 1), geo.Pt(1, math.Copysign(0, -1))},
			[]geo.Point{geo.Pt(math.Copysign(0, -1), math.Copysign(0, -1)), geo.Pt(0, 1), geo.Pt(-1, 0)}},
	)
	for _, tc := range cases {
		for _, swap := range []bool{false, true} {
			x, y := tc.a, tc.b
			if swap {
				x, y = y, x
			}
			want, err := peacock2DFastReference(x, y)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Peacock2DFast(x, y)
			if err != nil {
				t.Fatalf("%s swap=%v: %v", tc.name, swap, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s swap=%v: D=%v, want %v (bit-exact)", tc.name, swap, got, want)
			}
		}
	}
	if d, _ := Peacock2DFast(a, a); d != 0 {
		t.Errorf("identical samples: D=%v, want 0", d)
	}
}

// TestPeacock2DFastWorkersEmptySample keeps the empty-sample check that
// once ran per worker count: the sweep must reject an empty sample on
// either side with ErrEmptySample before it pools anything.
func TestPeacock2DFastWorkersEmptySample(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 2)}
	if _, err := Peacock2DFast(nil, pts); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty a: want ErrEmptySample, got %v", err)
	}
	if _, err := Peacock2DFast(pts, nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty b: want ErrEmptySample, got %v", err)
	}
}

func TestPeacock2DFastNonFinite(t *testing.T) {
	ok := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	for _, bad := range []geo.Point{
		geo.Pt(math.NaN(), 0), geo.Pt(0, math.NaN()), geo.Pt(math.Inf(1), 0), geo.Pt(0, math.Inf(-1)),
	} {
		withBad := []geo.Point{geo.Pt(2, 2), bad}
		if _, err := Peacock2DFast(withBad, ok); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("a holds %v: want ErrNonFiniteSample, got %v", bad, err)
		}
		if _, err := Peacock2DFast(ok, withBad); !errors.Is(err, ErrNonFiniteSample) {
			t.Errorf("b holds %v: want ErrNonFiniteSample, got %v", bad, err)
		}
	}
}

// FuzzPeacock2DFast pins the sweep to the per-origin recount on two
// samples of at most 64 points each. The first two bytes pick the sample
// sizes; each following byte pair is one point, with coordinates
// quantised to a 16×16 lattice so ties and >= boundaries dominate.
func FuzzPeacock2DFast(f *testing.F) {
	f.Add([]byte{3, 2, 0x00, 0x11, 0x22, 0x12, 0x21})
	f.Add([]byte{0x40, 0x40, 0xff, 0x0f, 0xf0, 0x00})
	f.Add([]byte{1, 1, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		na, nb := 1+int(data[0])%64, 1+int(data[1])%64
		data = data[2:]
		pts := make([]geo.Point, na+nb)
		for i := range pts {
			var v byte // points past the end of data sit at (-8, -8)
			if i < len(data) {
				v = data[i]
			}
			pts[i] = geo.Pt(float64(v>>4)-8, float64(v&0x0f)-8)
		}
		a, b := pts[:na], pts[na:]
		want, err := peacock2DFastReference(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Peacock2DFast(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("na=%d nb=%d: D=%v, want %v (bit-exact)", na, nb, got, want)
		}
	})
}

// BenchmarkPeacock2DFastReference times the per-origin recount at the
// sizes of the ks/peacock2dfast sections in internal/benchsuite.
func BenchmarkPeacock2DFastReference(b *testing.B) {
	for _, n := range []int{100, 500} {
		pa, pb := ksSamplePair(uint64(n), n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := peacock2DFastReference(pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

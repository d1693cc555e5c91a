package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(5, 5), Pt(5, 5), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"345 triangle", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist=%v, want %v", got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want, 1e-9) {
				t.Errorf("Dist2=%v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	// Symmetry, non-negativity and the triangle inequality over random
	// points: the core metric axioms every cost computation relies on.
	cfg := &quick.Config{MaxCount: 500}
	sym := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		d1, d2 := a.Dist(b), b.Dist(a)
		// Exact symmetry holds because Hypot(-dx,-dy) == Hypot(dx,dy);
		// extreme inputs may both be +Inf or NaN, which also counts.
		return d1 == d2 || (math.IsNaN(d1) && math.IsNaN(d2))
	}
	if err := quick.Check(sym, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	nonNeg := func(ax, ay, bx, by float64) bool {
		return Pt(ax, ay).Dist(Pt(bx, by)) >= 0
	}
	if err := quick.Check(nonNeg, cfg); err != nil {
		t.Errorf("non-negativity: %v", err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*1e4, rng.Float64()*1e4)
		b := Pt(rng.Float64()*1e4, rng.Float64()*1e4)
		c := Pt(rng.Float64()*1e4, rng.Float64()*1e4)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func TestNearest(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(0, 10)}
	tests := []struct {
		name     string
		p        Point
		pts      []Point
		wantIdx  int
		wantDist float64
	}{
		{"empty", Pt(1, 1), nil, -1, math.Inf(1)},
		{"closest origin", Pt(1, 1), pts, 0, math.Sqrt(2)},
		{"closest right", Pt(9, 1), pts, 1, math.Sqrt(2)},
		{"exact hit", Pt(0, 10), pts, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			idx, d := Nearest(tt.p, tt.pts)
			if idx != tt.wantIdx {
				t.Errorf("idx=%d, want %d", idx, tt.wantIdx)
			}
			if !almostEqual(d, tt.wantDist, 1e-12) && !(math.IsInf(d, 1) && math.IsInf(tt.wantDist, 1)) {
				t.Errorf("dist=%v, want %v", d, tt.wantDist)
			}
		})
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		p := Pt(rng.Float64()*1000, rng.Float64()*1000)
		idx, d := Nearest(p, pts)
		for i, q := range pts {
			if p.Dist(q) < d-1e-9 {
				t.Fatalf("point %d at dist %v beats reported nearest %d at %v", i, p.Dist(q), idx, d)
			}
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if Pt(math.NaN(), 0).IsFinite() || Pt(0, math.Inf(1)).IsFinite() {
		t.Error("non-finite point reported finite")
	}
}

func TestProjectorRoundTrip(t *testing.T) {
	// Beijing-ish origin, matching the dataset field.
	pr := NewProjector(LatLng{Lat: 39.9, Lng: 116.4})
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64()*6000-3000, rng.Float64()*6000-3000)
		back := pr.ToPlane(pr.ToLatLng(p))
		if !almostEqual(back.X, p.X, 1e-6) || !almostEqual(back.Y, p.Y, 1e-6) {
			t.Fatalf("round trip %v -> %v", p, back)
		}
	}
}

func TestProjectorScale(t *testing.T) {
	// One degree of latitude should be ~111.19 km in the plane.
	pr := NewProjector(LatLng{Lat: 39.9, Lng: 116.4})
	p := pr.ToPlane(LatLng{Lat: 40.9, Lng: 116.4})
	if !almostEqual(p.Y, 111_194.9, 10) {
		t.Errorf("1 degree latitude = %.1f m, want ~111195", p.Y)
	}
	if !almostEqual(p.X, 0, 1e-9) {
		t.Errorf("longitude displacement should be 0, got %v", p.X)
	}
}

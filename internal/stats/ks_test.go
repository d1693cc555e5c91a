package stats

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
)

func TestPeacock2DIdentical(t *testing.T) {
	pts := SamplePoints(NewRNG(1), UniformDist{Box: geo.Square(geo.Pt(0, 0), 100)}, 40)
	d, err := Peacock2D(pts, pts)
	if err != nil {
		t.Fatalf("Peacock2D: %v", err)
	}
	if d != 0 {
		t.Errorf("identical samples: D=%v, want 0", d)
	}
}

func TestPeacock2DDisjoint(t *testing.T) {
	a := SamplePoints(NewRNG(2), UniformDist{Box: geo.Square(geo.Pt(0, 0), 10)}, 30)
	b := SamplePoints(NewRNG(3), UniformDist{Box: geo.Square(geo.Pt(1000, 1000), 10)}, 30)
	d, err := Peacock2D(a, b)
	if err != nil {
		t.Fatalf("Peacock2D: %v", err)
	}
	if d < 0.99 {
		t.Errorf("disjoint samples: D=%v, want ~1", d)
	}
}

func TestPeacock2DEmpty(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0)}
	if _, err := Peacock2D(nil, pts); !errors.Is(err, ErrEmptySample) {
		t.Errorf("want ErrEmptySample, got %v", err)
	}
	if _, err := Peacock2D(pts, nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("want ErrEmptySample, got %v", err)
	}
	if _, err := Peacock2DFast(nil, pts); !errors.Is(err, ErrEmptySample) {
		t.Errorf("fast: want ErrEmptySample, got %v", err)
	}
}

func TestPeacock2DSameDistSmall(t *testing.T) {
	// Two independent draws from the same distribution should have a
	// small statistic; draws from different distributions a large one.
	box := geo.Square(geo.Pt(0, 0), 1000)
	a := SamplePoints(NewRNG(10), UniformDist{Box: box}, 120)
	b := SamplePoints(NewRNG(11), UniformDist{Box: box}, 120)
	c := SamplePoints(NewRNG(12), NormalDist{Center: geo.Pt(500, 500), StdDev: 60}, 120)

	dSame, err := Peacock2D(a, b)
	if err != nil {
		t.Fatalf("same: %v", err)
	}
	dDiff, err := Peacock2D(a, c)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if dSame >= dDiff {
		t.Errorf("same-dist D=%v should be < different-dist D=%v", dSame, dDiff)
	}
	if dSame > 0.35 {
		t.Errorf("same-dist D=%v unexpectedly large", dSame)
	}
	if dDiff < 0.4 {
		t.Errorf("different-dist D=%v unexpectedly small", dDiff)
	}
}

func TestPeacock2DFastLowerBoundsBrute(t *testing.T) {
	// The fast variant restricts origins to sample points, so it can never
	// exceed the brute-force supremum, and in practice stays very close.
	for seed := uint64(20); seed < 26; seed++ {
		rng := NewRNG(seed)
		a := SamplePoints(rng, NormalDist{Center: geo.Pt(0, 0), StdDev: 100}, 50)
		b := SamplePoints(rng, UniformDist{Box: geo.Square(geo.Pt(-200, -200), 400)}, 50)
		brute, err := Peacock2D(a, b)
		if err != nil {
			t.Fatalf("brute: %v", err)
		}
		fast, err := Peacock2DFast(a, b)
		if err != nil {
			t.Fatalf("fast: %v", err)
		}
		if fast > brute+1e-12 {
			t.Errorf("seed %d: fast %v exceeds brute %v", seed, fast, brute)
		}
		if brute-fast > 0.1 {
			t.Errorf("seed %d: fast %v too far below brute %v", seed, fast, brute)
		}
	}
}

func TestPeacock2DSymmetric(t *testing.T) {
	rng := NewRNG(33)
	a := SamplePoints(rng, UniformDist{Box: geo.Square(geo.Pt(0, 0), 500)}, 40)
	b := SamplePoints(rng, NormalDist{Center: geo.Pt(250, 250), StdDev: 80}, 35)
	d1, err := Peacock2D(a, b)
	if err != nil {
		t.Fatalf("Peacock2D: %v", err)
	}
	d2, err := Peacock2D(b, a)
	if err != nil {
		t.Fatalf("Peacock2D: %v", err)
	}
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
}

func TestPeacock2DRange(t *testing.T) {
	for seed := uint64(40); seed < 50; seed++ {
		rng := NewRNG(seed)
		a := SamplePoints(rng, UniformDist{Box: geo.Square(geo.Pt(0, 0), 300)}, 20)
		b := SamplePoints(rng, NormalDist{Center: geo.Pt(150, 150), StdDev: 400}, 25)
		d, err := Peacock2D(a, b)
		if err != nil {
			t.Fatalf("Peacock2D: %v", err)
		}
		if d < 0 || d > 1 {
			t.Errorf("seed %d: D=%v out of [0,1]", seed, d)
		}
	}
}

func TestSimilarity(t *testing.T) {
	tests := []struct {
		d    float64
		want float64
	}{
		{0, 100},
		{1, 0},
		{0.25, 75},
		{-0.5, 100}, // clamped
		{1.5, 0},    // clamped
	}
	for _, tt := range tests {
		if got := Similarity(tt.d); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Similarity(%v)=%v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestClassifySimilarity(t *testing.T) {
	tests := []struct {
		pct  float64
		want SimilarityBand
	}{
		{99, VerySimilar},
		{95.01, VerySimilar},
		{95, SimilarBand},
		{88, SimilarBand},
		{80, SimilarBand},
		{79.9, LessSimilar},
		{40, LessSimilar},
	}
	for _, tt := range tests {
		if got := ClassifySimilarity(tt.pct); got != tt.want {
			t.Errorf("ClassifySimilarity(%v)=%v, want %v", tt.pct, got, tt.want)
		}
	}
}

func TestSimilarityBandString(t *testing.T) {
	if VerySimilar.String() != "very-similar" || SimilarityBand(0).String() != "unknown" {
		t.Error("SimilarityBand.String mismatch")
	}
}

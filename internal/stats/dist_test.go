package stats

import (
	"math"
	"testing"

	"repro/internal/geo"
)

func TestPoissonMoments(t *testing.T) {
	tests := []struct {
		name   string
		lambda float64
	}{
		{"small", 2.5},
		{"medium", 12},
		{"large (normal approx)", 80},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := NewRNG(77)
			const n = 20000
			var sum, sum2 float64
			for i := 0; i < n; i++ {
				v := float64(Poisson(rng, tt.lambda))
				sum += v
				sum2 += v * v
			}
			mean := sum / n
			variance := sum2/n - mean*mean
			if math.Abs(mean-tt.lambda) > 0.05*tt.lambda+0.2 {
				t.Errorf("mean=%v, want ~%v", mean, tt.lambda)
			}
			if math.Abs(variance-tt.lambda) > 0.15*tt.lambda+0.5 {
				t.Errorf("variance=%v, want ~%v", variance, tt.lambda)
			}
		})
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := NewRNG(1)
	if Poisson(rng, 0) != 0 || Poisson(rng, -3) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(5)
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := Normal(rng, 10, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean=%v, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.1 {
		t.Errorf("sd=%v, want ~3", sd)
	}
}

func TestExponential(t *testing.T) {
	rng := NewRNG(6)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 0.5)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.1 {
		t.Errorf("mean=%v, want ~2", mean)
	}
	if !math.IsInf(Exponential(rng, 0), 1) {
		t.Error("rate 0 should give +Inf")
	}
}

func TestWeightedIndex(t *testing.T) {
	rng := NewRNG(8)
	if WeightedIndex(rng, nil) != -1 {
		t.Error("empty weights should give -1")
	}
	if WeightedIndex(rng, []float64{0, 0}) != -1 {
		t.Error("all-zero weights should give -1")
	}
	if WeightedIndex(rng, []float64{-1, 0, 5}) != 2 {
		t.Error("only positive weight should always win")
	}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[WeightedIndex(rng, []float64{1, 2, 7})]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, c := range counts {
		if frac := float64(c) / n; math.Abs(frac-want[i]) > 0.02 {
			t.Errorf("index %d frequency %v, want ~%v", i, frac, want[i])
		}
	}
}

func TestUniformDistInBox(t *testing.T) {
	box := geo.NewBBox(geo.Pt(100, 200), geo.Pt(300, 500))
	rng := NewRNG(9)
	d := UniformDist{Box: box}
	for i := 0; i < 1000; i++ {
		if p := d.Sample(rng); !box.Contains(p) {
			t.Fatalf("sample %v outside %v", p, box)
		}
	}
	if d.Name() != "uniform" {
		t.Error("name mismatch")
	}
}

func TestNormalDistCentering(t *testing.T) {
	rng := NewRNG(10)
	d := NormalDist{Center: geo.Pt(50, -20), StdDev: 5}
	pts := SamplePoints(rng, d, 5000)
	c := geo.Centroid(pts)
	if math.Abs(c.X-50) > 0.5 || math.Abs(c.Y+20) > 0.5 {
		t.Errorf("centroid %v, want ~(50,-20)", c)
	}
	if d.Name() != "normal" {
		t.Error("name mismatch")
	}
}

func TestPoissonRadialDist(t *testing.T) {
	rng := NewRNG(11)
	d := PoissonRadialDist{Center: geo.Pt(0, 0), Lambda: 4, Scale: 100}
	var sumR float64
	const n = 5000
	for i := 0; i < n; i++ {
		p := d.Sample(rng)
		sumR += math.Hypot(p.X, p.Y)
	}
	// Mean radius should be lambda*scale = 400.
	if mean := sumR / n; math.Abs(mean-400) > 20 {
		t.Errorf("mean radius %v, want ~400", mean)
	}
	if d.Name() != "poisson" {
		t.Error("name mismatch")
	}
}

func TestNewMixtureValidation(t *testing.T) {
	u := UniformDist{Box: geo.Square(geo.Pt(0, 0), 10)}
	tests := []struct {
		name       string
		components []PointDist
		weights    []float64
		wantErr    bool
	}{
		{"valid", []PointDist{u, u}, []float64{1, 2}, false},
		{"no components", nil, nil, true},
		{"length mismatch", []PointDist{u}, []float64{1, 2}, true},
		{"negative weight", []PointDist{u, u}, []float64{1, -1}, true},
		{"zero total", []PointDist{u}, []float64{0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewMixture("m", tt.components, tt.weights)
			if (err != nil) != tt.wantErr {
				t.Errorf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestMixtureSampling(t *testing.T) {
	left := NormalDist{Center: geo.Pt(-1000, 0), StdDev: 1}
	right := NormalDist{Center: geo.Pt(1000, 0), StdDev: 1}
	m, err := NewMixture("two-poi", []PointDist{left, right}, []float64{3, 1})
	if err != nil {
		t.Fatalf("NewMixture: %v", err)
	}
	if m.Name() != "two-poi" {
		t.Error("name mismatch")
	}
	rng := NewRNG(12)
	leftCount := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if m.Sample(rng).X < 0 {
			leftCount++
		}
	}
	if frac := float64(leftCount) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("left fraction %v, want ~0.75", frac)
	}
}

func TestSamplePointsDeterministic(t *testing.T) {
	d := UniformDist{Box: geo.Square(geo.Pt(0, 0), 100)}
	a := SamplePoints(NewRNG(99), d, 50)
	b := SamplePoints(NewRNG(99), d, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

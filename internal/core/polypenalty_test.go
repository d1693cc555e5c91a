package core

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

func TestFitPolyPenaltyValidation(t *testing.T) {
	good := []float64{10, 20, 30, 40, 50, 60}
	tests := []struct {
		name      string
		distances []float64
		degree    int
	}{
		{"degree too low", good, 0},
		{"degree too high", good, 13},
		{"too few points", []float64{1, 2}, 3},
		{"all invalid", []float64{-1, math.NaN(), math.Inf(1)}, 1},
		{"all zero", []float64{0, 0, 0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FitPolyPenalty(tt.distances, tt.degree); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestPolyPenaltyBasicShape(t *testing.T) {
	rng := stats.NewRNG(3)
	distances := make([]float64, 400)
	for i := range distances {
		distances[i] = math.Abs(rng.NormFloat64()) * 150
	}
	p, err := FitPolyPenalty(distances, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.coeffs) - 1; got != 4 {
		t.Errorf("degree=%d", got)
	}
	if got := p.Eval(0); got < 0.9 {
		t.Errorf("g(0)=%v, want ~1", got)
	}
	if got := p.Eval(-5); got != p.Eval(0) {
		t.Errorf("negative c should clamp to 0")
	}
	if got := p.Eval(p.Scale() + 1); got != 0 {
		t.Errorf("beyond scale g=%v, want 0", got)
	}
	for c := 0.0; c < p.Scale(); c += p.Scale() / 50 {
		v := p.Eval(c)
		if v < 0 || v > 1 {
			t.Fatalf("g(%v)=%v outside [0,1]", c, v)
		}
	}
}

func TestPolyPenaltyApproximatesSurvival(t *testing.T) {
	// For exponential distances the survival function is exp(-c/mean);
	// the fitted polynomial must track it closely over the bulk.
	rng := stats.NewRNG(7)
	const mean = 100.0
	distances := make([]float64, 2000)
	for i := range distances {
		distances[i] = stats.Exponential(rng, 1/mean)
	}
	p, err := FitPolyPenalty(distances, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{20, 50, 100, 200, 300} {
		want := math.Exp(-c / mean)
		got := p.Eval(c)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("g(%v)=%v, survival=%v", c, got, want)
		}
	}
}

func TestPolyPenaltyAdaptsToDistribution(t *testing.T) {
	// A tight distribution must produce a faster-decaying penalty than a
	// spread one — the whole point of the extension.
	rng := stats.NewRNG(9)
	tight := make([]float64, 500)
	wide := make([]float64, 500)
	for i := range tight {
		tight[i] = math.Abs(rng.NormFloat64()) * 50
		wide[i] = math.Abs(rng.NormFloat64()) * 400
	}
	pTight, err := FitPolyPenalty(tight, 5)
	if err != nil {
		t.Fatal(err)
	}
	pWide, err := FitPolyPenalty(wide, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{100, 200, 300} {
		if pTight.Eval(c) >= pWide.Eval(c)+0.05 {
			t.Errorf("at c=%v tight penalty %v should decay faster than wide %v",
				c, pTight.Eval(c), pWide.Eval(c))
		}
	}
}

func TestESharingCustomPenalty(t *testing.T) {
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	cfg.Beta = 1e12
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, nil, cfg)
	// A custom penalty that forbids all openings.
	e.SetCustomPenalty(func(float64) float64 { return 0 })
	for i := 0; i < 100; i++ {
		d, err := e.Place(geo.Pt(4000, 4000))
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			t.Fatal("zero custom penalty must block all openings")
		}
	}
	// Restoring nil returns to the built-in penalty.
	e.SetCustomPenalty(nil)
	if e.Penalty().Type != PenaltyTypeII {
		t.Error("built-in penalty lost")
	}
}

func TestESharingCustomPenaltySuspendsKSSwitch(t *testing.T) {
	rng := stats.NewRNG(11)
	hist := stats.SamplePoints(rng, stats.NormalDist{Center: geo.Pt(0, 0), StdDev: 30}, 100)
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 20
	cfg.WindowSize = 20
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, hist, cfg)
	e.SetCustomPenalty(func(float64) float64 { return 0.5 })
	// Divergent traffic that would normally trigger a switch.
	for i := 0; i < 60; i++ {
		if _, err := e.Place(geo.Pt(float64(i)*100, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Penalty().Type != PenaltyTypeII {
		t.Errorf("KS switching ran despite custom penalty: %v", e.Penalty().Type)
	}
}

func TestPolyPenaltyDrivesPlacement(t *testing.T) {
	// End to end: fit a polynomial on historical distances and run the
	// placer with it; openings must stay inside the observed range.
	rng := stats.NewRNG(13)
	landmark := geo.Pt(0, 0)
	histDist := make([]float64, 300)
	for i := range histDist {
		histDist[i] = math.Abs(rng.NormFloat64()) * 120
	}
	poly, err := FitPolyPenalty(histDist, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	e := newTestESharing(t, []geo.Point{landmark}, nil, cfg)
	e.SetCustomPenalty(poly.Eval)
	// Far requests (beyond the fitted scale) must never open.
	far := poly.Scale() * 2
	for i := 0; i < 50; i++ {
		d, err := e.Place(geo.Pt(far, 0))
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			t.Fatal("opening beyond the fitted distribution")
		}
	}
}

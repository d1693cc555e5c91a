package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

func offlineLandmarks(t *testing.T, stream []geo.Point, openingCost float64) []geo.Point {
	t.Helper()
	p, err := UniformProblem(stream, openingCost)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveOffline(p)
	if err != nil {
		t.Fatal(err)
	}
	return p.Stations(sol)
}

func newTestESharing(t *testing.T, landmarks, hist []geo.Point, cfg ESharingConfig) *ESharing {
	t.Helper()
	e, err := NewESharing(landmarks, 5000, hist, cfg)
	if err != nil {
		t.Fatalf("NewESharing: %v", err)
	}
	return e
}

func TestNewESharingValidation(t *testing.T) {
	landmark := []geo.Point{geo.Pt(0, 0)}
	hist := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	base := DefaultESharingConfig()
	tests := []struct {
		name      string
		landmarks []geo.Point
		opening   float64
		hist      []geo.Point
		mutate    func(*ESharingConfig)
	}{
		{"no landmarks", nil, 5000, hist, nil},
		{"zero opening", landmark, 0, hist, nil},
		{"test enabled without history", landmark, 5000, nil, nil},
		{"NaN history point", landmark, 5000, []geo.Point{geo.Pt(0, 0), geo.Pt(math.NaN(), 1)}, nil},
		{"infinite history point", landmark, 5000, []geo.Point{geo.Pt(0, math.Inf(-1)), geo.Pt(1, 1)}, nil},
		{"non-finite history with test off", landmark, 5000, []geo.Point{geo.Pt(math.Inf(1), 0)},
			func(c *ESharingConfig) { c.TestEvery = 0 }},
		{"beta below one", landmark, 5000, hist, func(c *ESharingConfig) { c.Beta = 0.5 }},
		{"bad tolerance", landmark, 5000, hist, func(c *ESharingConfig) { c.Tolerance = 0 }},
		{"negative interval", landmark, 5000, hist, func(c *ESharingConfig) { c.TestEvery = -1 }},
		{"negative window", landmark, 5000, hist, func(c *ESharingConfig) { c.WindowSize = -1 }},
		{"bad penalty", landmark, 5000, hist, func(c *ESharingConfig) { c.InitialPenalty = PenaltyType(42) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if _, err := NewESharing(tt.landmarks, tt.opening, tt.hist, cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestNewESharingHistoryTooLarge: a history whose counts overflow the
// KS reference's int32 counts fails at construction, not at the first
// test; with testing off it is accepted.
func TestNewESharingHistoryTooLarge(t *testing.T) {
	hist := geo.FoldWeighted([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 10)}, []int{1 << 30, 1 << 30})
	landmarks := []geo.Point{geo.Pt(0, 0)}
	cfg := DefaultESharingConfig()
	if _, err := NewESharingHistory(landmarks, 5000, hist, cfg); !errors.Is(err, stats.ErrSampleTooLarge) {
		t.Fatalf("2^31 occurrences with testing on: want stats.ErrSampleTooLarge, got %v", err)
	}
	cfg.TestEvery = 0
	if _, err := NewESharingHistory(landmarks, 5000, hist, cfg); err != nil {
		t.Fatalf("2^31 occurrences with testing off: %v", err)
	}
}

func TestESharingRequestAtLandmarkNeverOpens(t *testing.T) {
	// c = 0 at a landmark, so the opening probability g(0)·0/f is 0.
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	e := newTestESharing(t, []geo.Point{geo.Pt(100, 100)}, nil, cfg)
	for i := 0; i < 50; i++ {
		d, err := e.Place(geo.Pt(100, 100))
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			t.Fatal("request exactly at a landmark must not open")
		}
		if d.Walk != 0 {
			t.Fatalf("walk=%v, want 0", d.Walk)
		}
	}
	if e.OnlineOpens() != 0 {
		t.Errorf("OnlineOpens=%d, want 0", e.OnlineOpens())
	}
}

func TestESharingTypeIIBlocksFarOpenings(t *testing.T) {
	// Beyond the tolerance L, Type II zeroes the opening probability: a
	// far request must be assigned to the landmark, never opened.
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	cfg.InitialPenalty = PenaltyTypeII
	cfg.Tolerance = 200
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, nil, cfg)
	for i := 0; i < 100; i++ {
		d, err := e.Place(geo.Pt(1000, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			t.Fatal("type II must block openings beyond L")
		}
	}
}

func TestESharingNoPenaltyOpensEagerly(t *testing.T) {
	// With no penalty and a tiny scaled f, a distant request opens with
	// probability min(c/f, 1) = 1.
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	cfg.InitialPenalty = NoPenalty
	cfg.Beta = 1e12 // suppress f-doubling so the base probability is visible
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}
	opened := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		// A fresh placer per trial (its own seed) so every trial sees
		// the same geometry.
		cfg.Seed = uint64(i + 1)
		e := newTestESharing(t, landmarks, nil, cfg)
		// The working cost starts at the base opening cost (5000 here).
		if math.Abs(e.f-5000) > 1e-9 {
			t.Fatalf("working f=%v, want 5000", e.f)
		}
		d, err := e.Place(geo.Pt(0, 500)) // c = 500, prob = 500/5000 = 0.1
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			opened++
		}
	}
	frac := float64(opened) / trials
	if math.Abs(frac-0.1) > 0.03 {
		t.Errorf("opening frequency %v, want ~0.1", frac)
	}
}

func TestESharingDoubling(t *testing.T) {
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	cfg.InitialPenalty = NoPenalty
	cfg.Beta = 1
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)} // w*=5, k=2, f=12500
	e := newTestESharing(t, landmarks, nil, cfg)
	f0 := e.f
	rng := stats.NewRNG(5)
	dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 50000)}
	opens := 0
	for opens < 2 { // β·k = 2 openings trigger one doubling
		d, err := e.Place(dist.Sample(rng))
		if err != nil {
			t.Fatal(err)
		}
		if d.Opened {
			opens++
		}
	}
	if got := e.f; math.Abs(got-2*f0) > 1e-9 {
		t.Errorf("after β·k opens f=%v, want %v", got, 2*f0)
	}
}

func TestESharingKSTestSwitchesPenalty(t *testing.T) {
	// History is a tight cluster at the origin; live traffic is uniform
	// across the field. After a KS test the penalty must leave Type II.
	rng := stats.NewRNG(6)
	hist := stats.SamplePoints(rng, stats.NormalDist{Center: geo.Pt(0, 0), StdDev: 30}, 150)
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 50
	cfg.WindowSize = 50
	cfg.InitialPenalty = PenaltyTypeII
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, hist, cfg)
	live := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(-2000, -2000), 4000)}, 120)
	for _, p := range live {
		if _, err := e.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	if e.Penalty().Type == PenaltyTypeII {
		t.Errorf("penalty stayed %v despite divergent traffic (similarity %.1f%%)",
			e.Penalty().Type, e.LastSimilarity())
	}
	if e.LastSimilarity() > 80 {
		t.Errorf("similarity %.1f%%, want < 80%% for disjoint distributions", e.LastSimilarity())
	}
}

func TestESharingKSTestKeepsPenaltyWhenSimilar(t *testing.T) {
	// Live traffic drawn from the same distribution as history keeps the
	// strict Type II regime.
	rng := stats.NewRNG(7)
	dist := stats.NormalDist{Center: geo.Pt(500, 500), StdDev: 100}
	hist := stats.SamplePoints(rng, dist, 200)
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 60
	cfg.WindowSize = 60
	e := newTestESharing(t, []geo.Point{geo.Pt(500, 500)}, hist, cfg)
	for i := 0; i < 130; i++ {
		if _, err := e.Place(dist.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Penalty().Type; got == PenaltyTypeI {
		t.Errorf("penalty fell to %v for same-distribution traffic (similarity %.1f%%)",
			got, e.LastSimilarity())
	}
}

func TestESharingBeatsMeyersonOnClusteredWorkload(t *testing.T) {
	// The Fig. 6 claim: guided by the offline solution, E-sharing beats
	// pure Meyerson in total cost on in-distribution workloads.
	const opening = 5000.0
	rng := stats.NewRNG(8)
	mix, err := stats.NewMixture("city",
		[]stats.PointDist{
			stats.NormalDist{Center: geo.Pt(200, 200), StdDev: 60},
			stats.NormalDist{Center: geo.Pt(800, 700), StdDev: 60},
			stats.NormalDist{Center: geo.Pt(500, 300), StdDev: 60},
		},
		[]float64{1, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	hist := stats.SamplePoints(rng, mix, 120)
	landmarks := offlineLandmarks(t, hist, opening)
	if len(landmarks) == 0 {
		t.Fatal("no landmarks")
	}
	stream := stats.SamplePoints(rng, mix, 200)

	var esTotal, meyTotal float64
	const reps = 5
	for rep := uint64(0); rep < reps; rep++ {
		cfg := DefaultESharingConfig()
		cfg.Seed = rep + 1
		cfg.TestEvery = 0
		es := newTestESharing(t, landmarks, nil, cfg)
		esCost, _, err := RunStream(es, stream, opening)
		if err != nil {
			t.Fatal(err)
		}
		// Charge the landmark stations' space cost too (Fig. 6 counts
		// offline stations in the total).
		esTotal += esCost.Total() + float64(len(landmarks))*opening

		mey, err := NewMeyerson(opening, rep+1)
		if err != nil {
			t.Fatal(err)
		}
		meyCost, _, err := RunStream(mey, stream, opening)
		if err != nil {
			t.Fatal(err)
		}
		meyTotal += meyCost.Total()
	}
	if esTotal >= meyTotal {
		t.Errorf("E-sharing avg total %.0f should beat Meyerson %.0f", esTotal/reps, meyTotal/reps)
	}
}

func TestESharingRejectsNonFinite(t *testing.T) {
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, nil, cfg)
	if _, err := e.Place(geo.Pt(0, math.NaN())); err == nil {
		t.Error("NaN destination should error")
	}
}

func TestESharingName(t *testing.T) {
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, nil, cfg)
	if e.Name() != "e-sharing" {
		t.Errorf("Name=%q", e.Name())
	}
}

func TestESharingSingleLandmarkFallback(t *testing.T) {
	// A single landmark is a valid guide (the Fig. 9 / Table III setup);
	// the working cost starts at the base opening cost.
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	e := newTestESharing(t, []geo.Point{geo.Pt(0, 0)}, nil, cfg)
	if math.Abs(e.f-e.baseOpening) > 1e-9 {
		t.Errorf("working f=%v, want base %v", e.f, e.baseOpening)
	}
}

func TestESharingErrNoStationsSentinel(t *testing.T) {
	_, err := NewESharing(nil, 100, nil, ESharingConfig{
		Beta: 1, Tolerance: 100, InitialPenalty: PenaltyTypeII,
	})
	if !errors.Is(err, ErrNoStations) {
		t.Errorf("want ErrNoStations, got %v", err)
	}
}

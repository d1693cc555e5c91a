package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// peacockOracle recomputes every drift test from scratch with
// stats.Peacock2DFast, the kernel the KS reference must reproduce.
type peacockOracle struct {
	hist  []geo.Point
	tests int
}

func (o *peacockOracle) Statistic(w []geo.Point) (float64, error) {
	o.tests++
	return stats.Peacock2DFast(o.hist, w)
}

// driftWorkload is a history and a 2,400-request stream that starts in
// the history's distribution and then drifts through two surges, so the
// similarity crosses every Section V-C band. Every coordinate sits on a
// 100 m lattice, so ties between and within the samples are common.
func driftWorkload() (landmarks, hist, stream []geo.Point) {
	rng := stats.NewRNG(21)
	box := geo.Square(geo.Pt(0, 0), 3000)
	hist = stats.SamplePoints(rng, stats.UniformDist{Box: box}, 3000)
	landmarks = []geo.Point{geo.Pt(500, 500), geo.Pt(2500, 500), geo.Pt(500, 2500), geo.Pt(2500, 2500), geo.Pt(1500, 1500)}
	stream = stats.SamplePoints(rng, stats.UniformDist{Box: box}, 800)
	stream = append(stream, stats.SamplePoints(rng, stats.NormalDist{Center: geo.Pt(2600, 400), StdDev: 150}, 800)...)
	mixed := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(1500, 1500), 1500)}, 800)
	for i := 0; i < len(mixed); i += 3 {
		// Snap every third point onto a history point: ties with H.
		mixed[i] = hist[(i*7)%len(hist)]
	}
	stream = append(stream, mixed...)
	snap := func(pts []geo.Point) {
		for i, p := range pts {
			pts[i] = geo.Pt(math.Round(p.X/100)*100, math.Round(p.Y/100)*100)
		}
	}
	snap(hist)
	snap(stream)
	return landmarks, hist, stream
}

// TestESharingKSReferenceMatchesPeacockOracle runs the production placer
// beside one whose every drift test is a fresh stats.Peacock2DFast: the
// decisions and the similarity must agree bit for bit after every
// request, including across a state restore into a placer that has not
// built its reference yet.
func TestESharingKSReferenceMatchesPeacockOracle(t *testing.T) {
	landmarks, hist, stream := driftWorkload()
	cfg := DefaultESharingConfig()
	cfg.Seed = 5
	for _, tc := range []struct {
		name      string
		restoreAt int // restore the production placer after this many requests; 0 = never
	}{
		{"uninterrupted", 0},
		{"restore mid-stream", 1250},
		{"restore before first test", 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prod := newTestESharing(t, landmarks, hist, cfg)
			oracle := newTestESharing(t, landmarks, hist, cfg)
			check := &peacockOracle{hist: hist}
			oracle.ks = check
			bands := map[stats.SimilarityBand]bool{}
			for i, dest := range stream {
				if i == tc.restoreAt && i > 0 {
					state, err := prod.MarshalState()
					if err != nil {
						t.Fatal(err)
					}
					prod = newTestESharing(t, landmarks, hist, cfg)
					if err := prod.UnmarshalState(state); err != nil {
						t.Fatal(err)
					}
				}
				got, err := prod.Place(dest)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Place(dest)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDecision(got, want) {
					t.Fatalf("request %d: decision %+v, oracle %+v", i, got, want)
				}
				if g, w := prod.LastSimilarity(), oracle.LastSimilarity(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("request %d: similarity %v, oracle %v", i, g, w)
				}
				bands[stats.ClassifySimilarity(prod.LastSimilarity())] = true
			}
			if want := len(stream) / cfg.TestEvery; check.tests != want {
				t.Errorf("oracle ran %d tests, want %d", check.tests, want)
			}
			if len(bands) != 3 {
				t.Errorf("similarity visited bands %v, want all three", bands)
			}
		})
	}
}

// TestESharingBuildsKSReferenceLazily: construction keeps the caller's
// history without a copy and builds no reference; the first test builds
// it and drops the history. With testing off, neither ever exists.
func TestESharingBuildsKSReferenceLazily(t *testing.T) {
	landmarks, rows, stream := driftWorkload()
	hist := geo.FoldPoints(rows)
	cfg := DefaultESharingConfig()
	e, err := NewESharingHistory(landmarks, 5000, hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.ks != nil {
		t.Fatal("NewESharingHistory built the KS reference eagerly")
	}
	if e.hist.Len() != hist.Len() || &e.hist.Points()[0] != &hist.Points()[0] || &e.hist.Counts()[0] != &hist.Counts()[0] {
		t.Fatal("NewESharingHistory copied the history")
	}
	for _, dest := range stream[:cfg.TestEvery-1] {
		if _, err := e.Place(dest); err != nil {
			t.Fatal(err)
		}
	}
	if e.ks != nil {
		t.Fatal("KS reference built before the first test")
	}
	if _, err := e.Place(stream[cfg.TestEvery-1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.ks.(*stats.KSReference); !ok || e.hist.Len() != 0 {
		t.Fatalf("after the first test: ks %T, history held %v; want a *stats.KSReference and no history", e.ks, e.hist.Len() != 0)
	}

	cfg.TestEvery = 0
	off := newTestESharing(t, landmarks, rows, cfg)
	for _, dest := range stream {
		if _, err := off.Place(dest); err != nil {
			t.Fatal(err)
		}
	}
	if off.ks != nil || off.hist.Len() != 0 {
		t.Errorf("TestEvery=0: ks %v, history held %v; want neither", off.ks, off.hist.Len() != 0)
	}
}

// TestNewESharingAllocatesNoHistoryCopy bounds what construction from
// a history of places allocates on a large history: far less than the
// 24 B per place a copy of H would take. (NewESharing over a point
// slice folds it into places first, which is that copy.)
func TestNewESharingAllocatesNoHistoryCopy(t *testing.T) {
	const n = 200_000
	hist := geo.FoldPoints(stats.SamplePoints(stats.NewRNG(4), stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 5000)}, n))
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(5000, 5000)}
	for _, testEvery := range []int{100, 0} {
		cfg := DefaultESharingConfig()
		cfg.TestEvery = testEvery
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := NewESharingHistory(landmarks, 5000, hist, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > n {
			t.Errorf("TestEvery=%d: NewESharingHistory allocated %d B on a %d-point history, want at most 1 B per point", testEvery, got, n)
		}
		runtime.KeepAlive(e)
	}
}

// TestESharingWarmDriftTestAllocs: once the reference is built and has
// answered one full window, a drift test allocates nothing.
func TestESharingWarmDriftTestAllocs(t *testing.T) {
	landmarks, hist, stream := driftWorkload()
	cfg := DefaultESharingConfig()
	e := newTestESharing(t, landmarks, hist, cfg)
	for _, dest := range stream[:2*cfg.TestEvery] {
		if _, err := e.Place(dest); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, e.runTest); allocs != 0 {
		t.Errorf("warm drift test allocates %v times, want 0", allocs)
	}
}

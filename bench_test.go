// Package repro benchmarks the paper's evaluation and the gated compute
// sections from their registries, plus micro-benchmarks of what no
// section covers. BenchmarkExperiment runs every catalog experiment of
// internal/experiments at its quick configuration (the one
// `esharing-bench -quick` runs; use cmd/esharing-bench for full-size
// runs), one sub-benchmark per ablation study. BenchmarkSection runs the
// internal/benchsuite sections that `esharing-bench compare` gates.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Catalog() {
		b.Run(e.Name, func(b *testing.B) {
			if len(e.Studies) == 1 {
				benchStudy(b, e.Studies[0])
				return
			}
			for _, s := range e.Studies {
				b.Run(s.Name, func(b *testing.B) { benchStudy(b, s) })
			}
		})
	}
}

func benchStudy(b *testing.B, s experiments.Study) {
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection(b *testing.B) {
	for _, s := range benchsuite.Sections() {
		b.Run(s.Name, s.Bench)
	}
}

// --- Micro-benchmarks of the core algorithms ---------------------------

func benchPoints(n int) []geo.Point {
	return stats.SamplePoints(stats.NewRNG(7),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, n)
}

func BenchmarkMeyersonStream1000(b *testing.B) {
	pts := benchPoints(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placer, err := core.NewMeyerson(5000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.RunStream(placer, pts, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkESharingStream1000(b *testing.B) {
	pts := benchPoints(1000)
	landmarks := benchPoints(12)
	hist := benchPoints(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultESharingConfig()
		cfg.Seed = uint64(i) + 1
		placer, err := core.NewESharing(landmarks, 5000, hist, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.RunStream(placer, pts, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlace measures the per-request cost of the placement hot path
// (Algorithm 2's nearest-station lookup plus the opening draw) at
// increasing station counts. The opening cost is set prohibitively high
// so the station set stays fixed at k and the numbers isolate the lookup.
func BenchmarkPlace(b *testing.B) {
	for _, k := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			landmarks := benchPoints(k)
			queries := stats.SamplePoints(stats.NewRNG(13),
				stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 4096)
			cfg := core.DefaultESharingConfig()
			cfg.TestEvery = 0
			placer, err := core.NewESharing(landmarks, 1e12, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := placer.Place(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPeacockKSBrute60(b *testing.B) {
	a := benchPoints(60)
	c := stats.SamplePoints(stats.NewRNG(8),
		stats.NormalDist{Center: geo.Pt(1000, 1000), StdDev: 300}, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Peacock2D(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSPHeldKarp12(b *testing.B) {
	pts := benchPoints(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := routing.HeldKarp(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSPTwoOpt60(b *testing.B) {
	pts := benchPoints(60)
	nn, err := routing.NearestNeighbor(pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.TwoOpt(pts, nn)
	}
}

func BenchmarkLocalSearchRefinement(b *testing.B) {
	pts := benchPoints(120)
	problem, err := core.UniformProblem(pts, 5000)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ImproveLocalSearch(problem, sol, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSTMTrainingEpoch(b *testing.B) {
	series := make([]float64, 24*10)
	for i := range series {
		series[i] = 100 + 50*float64(i%24)/24
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := forecast.NewLSTM(forecast.LSTMConfig{
			Hidden: 16, Layers: 2, Lookback: 12, Epochs: 1,
			LearningRate: 0.01, ClipNorm: 1, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := model.Fit(series); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargingRound(b *testing.B) {
	stations := make([]geo.Point, 0, 25)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			stations = append(stations, geo.Pt(float64(c)*600, float64(r)*600))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet, err := energy.NewFleet(energy.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		rng := stats.NewRNG(uint64(i) + 1)
		for id := 1; id <= 300; id++ {
			st := stations[rng.IntN(len(stations))]
			if err := fleet.Add(energy.Bike{ID: int64(id), Loc: st, Level: 1}); err != nil {
				b.Fatal(err)
			}
		}
		if err := fleet.SeedLevels(stats.NewRNG(uint64(i)+2), 0.2); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunChargingRound(stations, fleet, sim.DefaultChargingConfig(0.4)); err != nil {
			b.Fatal(err)
		}
	}
}

package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/routing"
	"repro/internal/stats"
)

// AblationConfig parameterises the design-choice studies listed in
// DESIGN.md §5.
type AblationConfig struct {
	Requests    int
	OpeningCost float64
	Seed        uint64
	Trials      int
}

// DefaultAblationConfig keeps each study under a second.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Requests: 250, OpeningCost: 5000, Seed: 21, Trials: 5}
}

// QuickAblationConfig averages two trials instead of five.
func QuickAblationConfig() AblationConfig {
	cfg := DefaultAblationConfig()
	cfg.Trials = 2
	return cfg
}

// AblationRow is one variant's averaged outcome.
type AblationRow struct {
	Variant  string  `json:"variant"`
	Stations float64 `json:"stations"`
	TotalKm  float64 `json:"totalKm"`
}

// AblationResult groups rows per study.
type AblationResult struct {
	Study string        `json:"study"`
	Rows  []AblationRow `json:"rows"`
}

// Render writes the rows.
func (r *AblationResult) Render(w io.Writer) {
	fprintf(w, "Ablation — %s\n", r.Study)
	rule(w, 56)
	fprintf(w, "%-26s %10s %12s\n", "variant", "#stations", "total (km)")
	for _, row := range r.Rows {
		fprintf(w, "%-26s %10.1f %12.2f\n", row.Variant, row.Stations, row.TotalKm)
	}
}

// ablationWorkload builds the shared clustered stream with its offline
// guide.
func ablationWorkload(cfg AblationConfig, salt uint64) (landmarks []geo.Point, hist, stream []geo.Point, err error) {
	mix, err := stats.NewMixture("abl-city",
		[]stats.PointDist{
			stats.NormalDist{Center: geo.Pt(300, 300), StdDev: 90},
			stats.NormalDist{Center: geo.Pt(1600, 500), StdDev: 90},
			stats.NormalDist{Center: geo.Pt(900, 1500), StdDev: 90},
			stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)},
		},
		[]float64{3, 3, 3, 1},
	)
	if err != nil {
		return nil, nil, nil, err
	}
	hist = sampleField(cfg.Seed+salt, mix, cfg.Requests)
	stream = sampleField(cfg.Seed+salt+1, mix, cfg.Requests)
	landmarks, _, err = solveOfflineOn(hist, 100, cfg.OpeningCost)
	if err != nil {
		return nil, nil, nil, err
	}
	return landmarks, hist, stream, nil
}

// RunAblationBeta studies the doubling cadence β (DESIGN.md ablation 1).
func RunAblationBeta(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "f-doubling cadence beta"}
	for _, beta := range []float64{1, 2, 4, 8} {
		var stations, total float64
		for trial := 0; trial < cfg.Trials; trial++ {
			landmarks, hist, stream, err := ablationWorkload(cfg, uint64(trial)*31)
			if err != nil {
				return nil, err
			}
			esCfg := core.DefaultESharingConfig()
			esCfg.Beta = beta
			esCfg.Seed = cfg.Seed + uint64(trial)
			esCfg.TestEvery = 50
			es, err := core.NewESharing(landmarks, cfg.OpeningCost, hist, esCfg)
			if err != nil {
				return nil, err
			}
			cost, _, err := core.RunStream(es, stream, cfg.OpeningCost)
			if err != nil {
				return nil, err
			}
			stations += float64(len(es.Stations()))
			total += (cost.Total() + float64(len(landmarks))*cfg.OpeningCost) / 1000
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:  fmt.Sprintf("beta=%.0f", beta),
			Stations: stations / float64(cfg.Trials),
			TotalKm:  total / float64(cfg.Trials),
		})
	}
	return res, nil
}

// RunAblationPenaltySwitch compares KS-driven penalty switching against
// each fixed penalty (DESIGN.md ablation 2). The stream shifts
// distribution halfway to exercise the test.
func RunAblationPenaltySwitch(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "KS-driven penalty switching vs fixed"}
	variants := []struct {
		name      string
		testEvery int
		penalty   core.PenaltyType
	}{
		{"ks-switching", 40, core.PenaltyTypeII},
		{"fixed type-I", 0, core.PenaltyTypeI},
		{"fixed type-II", 0, core.PenaltyTypeII},
		{"fixed type-III", 0, core.PenaltyTypeIII},
	}
	for _, v := range variants {
		var stations, total float64
		for trial := 0; trial < cfg.Trials; trial++ {
			landmarks, hist, stream, err := ablationWorkload(cfg, uint64(trial)*31)
			if err != nil {
				return nil, err
			}
			// Second half shifts to an unseen cluster.
			shift := sampleField(cfg.Seed+uint64(trial)*31+5,
				stats.NormalDist{Center: geo.Pt(2600, 2600), StdDev: 100}, len(stream)/2)
			mixed := append(append([]geo.Point(nil), stream[:len(stream)/2]...), shift...)

			esCfg := core.DefaultESharingConfig()
			esCfg.TestEvery = v.testEvery
			esCfg.InitialPenalty = v.penalty
			esCfg.Seed = cfg.Seed + uint64(trial)
			es, err := core.NewESharing(landmarks, cfg.OpeningCost, hist, esCfg)
			if err != nil {
				return nil, err
			}
			cost, _, err := core.RunStream(es, mixed, cfg.OpeningCost)
			if err != nil {
				return nil, err
			}
			stations += float64(len(es.Stations()))
			total += (cost.Total() + float64(len(landmarks))*cfg.OpeningCost) / 1000
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:  v.name,
			Stations: stations / float64(cfg.Trials),
			TotalKm:  total / float64(cfg.Trials),
		})
	}
	return res, nil
}

// RunAblationGuidance compares offline-guided E-sharing against pure
// Meyerson (DESIGN.md ablation 3).
func RunAblationGuidance(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "offline guidance vs pure online"}
	var guidedStations, guidedTotal, pureStations, pureTotal float64
	for trial := 0; trial < cfg.Trials; trial++ {
		landmarks, hist, stream, err := ablationWorkload(cfg, uint64(trial)*31)
		if err != nil {
			return nil, err
		}
		esCfg := core.DefaultESharingConfig()
		esCfg.Seed = cfg.Seed + uint64(trial)
		esCfg.TestEvery = 50
		es, err := core.NewESharing(landmarks, cfg.OpeningCost, hist, esCfg)
		if err != nil {
			return nil, err
		}
		cost, _, err := core.RunStream(es, stream, cfg.OpeningCost)
		if err != nil {
			return nil, err
		}
		guidedStations += float64(len(es.Stations()))
		guidedTotal += (cost.Total() + float64(len(landmarks))*cfg.OpeningCost) / 1000

		mey, err := core.NewMeyerson(cfg.OpeningCost, cfg.Seed+uint64(trial))
		if err != nil {
			return nil, err
		}
		mCost, _, err := core.RunStream(mey, stream, cfg.OpeningCost)
		if err != nil {
			return nil, err
		}
		pureStations += float64(len(mey.Stations()))
		pureTotal += mCost.Total() / 1000
	}
	n := float64(cfg.Trials)
	res.Rows = append(res.Rows,
		AblationRow{Variant: "guided (e-sharing)", Stations: guidedStations / n, TotalKm: guidedTotal / n},
		AblationRow{Variant: "pure online (meyerson)", Stations: pureStations / n, TotalKm: pureTotal / n},
	)
	return res, nil
}

// RunAblationTSP compares the tour heuristics (DESIGN.md ablation 4).
func RunAblationTSP(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "TSP heuristic quality (tour km; stations column = instance size)"}
	sizes := []int{8, 12, 15}
	for _, n := range sizes {
		pts := sampleField(cfg.Seed+uint64(n), stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 3000)}, n)
		nn, err := routing.NearestNeighbor(pts, 0)
		if err != nil {
			return nil, err
		}
		nnLen, err := routing.TourLength(pts, nn)
		if err != nil {
			return nil, err
		}
		twoOptLen, err := routing.TourLength(pts, routing.TwoOpt(pts, nn))
		if err != nil {
			return nil, err
		}
		_, exact, err := routing.HeldKarp(pts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows,
			AblationRow{Variant: fmt.Sprintf("n=%d nearest-neighbor", n), Stations: float64(n), TotalKm: nnLen / 1000},
			AblationRow{Variant: fmt.Sprintf("n=%d nn+2opt", n), Stations: float64(n), TotalKm: twoOptLen / 1000},
			AblationRow{Variant: fmt.Sprintf("n=%d held-karp (exact)", n), Stations: float64(n), TotalKm: exact / 1000},
		)
	}
	return res, nil
}

// RunAblationPolyPenalty compares the fitted polynomial penalty (the
// paper's future-work extension) against the three fixed shapes on the
// clustered workload; the polynomial is fitted to the historical
// request-to-landmark distances.
func RunAblationPolyPenalty(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "polynomial penalty vs fixed shapes"}
	type variant struct {
		name string
		pen  core.PenaltyType // ignored when poly
		poly bool
	}
	variants := []variant{
		{name: "poly degree-5", poly: true},
		{name: "fixed type-I", pen: core.PenaltyTypeI},
		{name: "fixed type-II", pen: core.PenaltyTypeII},
		{name: "fixed type-III", pen: core.PenaltyTypeIII},
	}
	for _, v := range variants {
		var stations, total float64
		for trial := 0; trial < cfg.Trials; trial++ {
			landmarks, hist, stream, err := ablationWorkload(cfg, uint64(trial)*31)
			if err != nil {
				return nil, err
			}
			esCfg := core.DefaultESharingConfig()
			esCfg.TestEvery = 0
			if !v.poly {
				esCfg.InitialPenalty = v.pen
			}
			esCfg.Seed = cfg.Seed + uint64(trial)
			es, err := core.NewESharing(landmarks, cfg.OpeningCost, hist, esCfg)
			if err != nil {
				return nil, err
			}
			if v.poly {
				dists := make([]float64, len(hist))
				for i, p := range hist {
					_, dists[i] = geo.Nearest(p, landmarks)
				}
				poly, err := core.FitPolyPenalty(dists, 5)
				if err != nil {
					return nil, err
				}
				es.SetCustomPenalty(poly.Eval)
			}
			cost, _, err := core.RunStream(es, stream, cfg.OpeningCost)
			if err != nil {
				return nil, err
			}
			stations += float64(len(es.Stations()))
			total += (cost.Total() + float64(len(landmarks))*cfg.OpeningCost) / 1000
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:  v.name,
			Stations: stations / float64(cfg.Trials),
			TotalKm:  total / float64(cfg.Trials),
		})
	}
	return res, nil
}

// RunAblationKS compares the brute-force and pruned Peacock statistics
// (DESIGN.md ablation 5); the stations column is reused for the sample
// size and TotalKm for the statistic value.
func RunAblationKS(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "Peacock KS: brute force vs sample-origin (column: D statistic)"}
	for _, n := range []int{30, 60, 90} {
		rng := stats.NewRNG(cfg.Seed + uint64(n))
		a := stats.SamplePoints(rng, stats.NormalDist{Center: geo.Pt(0, 0), StdDev: 200}, n)
		b := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(-400, -400), 800)}, n)
		brute, err := stats.Peacock2D(a, b)
		if err != nil {
			return nil, err
		}
		fast, err := stats.Peacock2DFast(a, b)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows,
			AblationRow{Variant: fmt.Sprintf("n=%d brute O(n^3)", n), Stations: float64(n), TotalKm: brute},
			AblationRow{Variant: fmt.Sprintf("n=%d fast O(n^2)", n), Stations: float64(n), TotalKm: fast},
		)
	}
	return res, nil
}

// RunAblationLocalSearch measures what local-search refinement buys on
// top of the 1.61-factor greedy (DESIGN.md pipeline note).
func RunAblationLocalSearch(cfg AblationConfig) (*AblationResult, error) {
	res := &AblationResult{Study: "offline greedy vs greedy + local search"}
	var gStations, gTotal, lsStations, lsTotal float64
	for trial := 0; trial < cfg.Trials; trial++ {
		_, hist, _, err := ablationWorkload(cfg, uint64(trial)*31)
		if err != nil {
			return nil, err
		}
		problem, err := core.HistoryProblem(hist, 100, cfg.OpeningCost)
		if err != nil {
			return nil, err
		}
		sol, err := core.SolveOffline(problem)
		if err != nil {
			return nil, err
		}
		gCost, err := problem.Evaluate(sol)
		if err != nil {
			return nil, err
		}
		improved, _, err := core.ImproveLocalSearch(problem, sol, 20)
		if err != nil {
			return nil, err
		}
		lsCost, err := problem.Evaluate(improved)
		if err != nil {
			return nil, err
		}
		gStations += float64(len(sol.Open))
		gTotal += gCost.Total() / 1000
		lsStations += float64(len(improved.Open))
		lsTotal += lsCost.Total() / 1000
	}
	n := float64(cfg.Trials)
	res.Rows = append(res.Rows,
		AblationRow{Variant: "greedy (1.61-factor)", Stations: gStations / n, TotalKm: gTotal / n},
		AblationRow{Variant: "greedy + local search", Stations: lsStations / n, TotalKm: lsTotal / n},
	)
	return res, nil
}

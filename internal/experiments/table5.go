package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Table5Config parameterises the PLP algorithm comparison (Fig. 10 and
// Table V).
type Table5Config struct {
	TripsWeekday, TripsWeekend int
	Seed                       uint64
	// Regions is the number of random sub-fields, each solved as an
	// independent PLP (the Fig. 10 scatter points).
	Regions int
	// RegionSide is the sub-field edge in metres.
	RegionSide float64
	// OpeningCost is the space cost per station in metres (paper mean:
	// 10 km).
	OpeningCost float64
	// CellMeters is the demand aggregation granularity.
	CellMeters float64
	// TrainDays splits the 14-day window into history and live test.
	TrainDays int
	// LSTM size for the predicted variant.
	Hidden, Epochs int
	// Workers bounds the parallel fan-out over regions; 0 means
	// parallel.Default(). Results are bit-identical at any value.
	Workers int
}

// DefaultTable5Config mirrors the evaluation.
func DefaultTable5Config() Table5Config {
	return Table5Config{
		TripsWeekday: 2400,
		TripsWeekend: 1700,
		Seed:         15,
		Regions:      12,
		RegionSide:   1100,
		OpeningCost:  10000,
		CellMeters:   100,
		TrainDays:    10,
		Hidden:       20,
		Epochs:       25,
	}
}

// QuickTable5Config shrinks the study for a fast pass.
func QuickTable5Config() Table5Config {
	cfg := DefaultTable5Config()
	cfg.Regions = 2
	cfg.Hidden = 10
	cfg.Epochs = 8
	return cfg
}

// Fig10Point is one region's outcome for one algorithm.
type Fig10Point struct {
	Region   int     `json:"region"`
	Stations int     `json:"stations"`
	TotalKm  float64 `json:"totalKm"`
}

// Table5Row aggregates one algorithm across regions (sums, in km, as
// Table V reports).
type Table5Row struct {
	Name      string  `json:"name"`
	Stations  float64 `json:"stations"` // mean per region
	WalkingKm float64 `json:"walkingKm"`
	SpaceKm   float64 `json:"spaceKm"`
}

// TotalKm returns walking + space.
func (r Table5Row) TotalKm() float64 { return r.WalkingKm + r.SpaceKm }

// Table5Result holds Table V rows and the Fig. 10 scatter.
type Table5Result struct {
	Offline      Table5Row `json:"offline"`
	Meyerson     Table5Row `json:"meyerson"`
	OnlineKMeans Table5Row `json:"onlineKmeans"`
	ESharingAct  Table5Row `json:"eSharingActual"`
	ESharingPred Table5Row `json:"eSharingPredicted"`

	Scatter map[string][]Fig10Point `json:"scatter"`

	// AvgWalkPerRequestM is E-sharing (actual)'s mean walk per request
	// (paper: ~180 m, a 2-minute walk).
	AvgWalkPerRequestM float64 `json:"avgWalkPerRequestM"`
	// GapActualPct / GapPredPct are E-sharing's total-cost gaps over the
	// offline bound (paper: ~20% and ~25%).
	GapActualPct float64 `json:"gapActualPct"`
	GapPredPct   float64 `json:"gapPredPct"`
}

// RunTable5 regenerates Table V and Fig. 10: for each random sub-region,
// solve the PLP with the near-optimal offline algorithm (future known),
// Meyerson, online k-means, and E-sharing guided by offline solutions on
// actual and LSTM-predicted demand; aggregate costs across regions.
func RunTable5(cfg Table5Config) (*Table5Result, error) {
	if cfg.Regions < 1 || cfg.RegionSide <= 0 || cfg.TrainDays < 2 || cfg.TrainDays > 13 {
		return nil, fmt.Errorf("experiments: invalid table5 config %+v", cfg)
	}
	trips, err := cityWorkload(cfg.Seed, cfg.TripsWeekday, cfg.TripsWeekend)
	if err != nil {
		return nil, err
	}
	trainEnd := workloadStart.AddDate(0, 0, cfg.TrainDays)
	var trainTrips, testTrips []dataset.Trip
	for _, t := range trips {
		if t.StartTime.Before(trainEnd) {
			trainTrips = append(trainTrips, t)
		} else {
			testTrips = append(testTrips, t)
		}
	}

	// Demand scale prediction: an LSTM on the hourly totals forecasts the
	// test window's volume; the spatial shape comes from history. The
	// predicted per-cell demand is share_hist(cell) x predictedTotal.
	predictedScale, err := predictTestScale(trips, cfg)
	if err != nil {
		return nil, err
	}

	// Region boxes come from one sequential RNG: draw them all up front
	// (same draw order as the sequential loop), then fan the regions out.
	// Every other random choice in a region is keyed on the region index
	// (the cfg.Seed+region*13+salt formulas), so regions are independent
	// tasks and no RNG draw depends on execution order.
	rng := stats.NewRNG(cfg.Seed + 99)
	fieldBox := geo.Square(geo.Pt(0, 0), 3000)
	boxes := make([]geo.BBox, cfg.Regions)
	for region := range boxes {
		// Random sub-field fully inside the city box.
		ox := rng.Float64() * (fieldBox.Width() - cfg.RegionSide)
		oy := rng.Float64() * (fieldBox.Height() - cfg.RegionSide)
		boxes[region] = geo.Square(geo.Pt(fieldBox.MinX+ox, fieldBox.MinY+oy), cfg.RegionSide)
	}

	type algoRun struct {
		stations []geo.Point
		cost     core.Cost
	}
	type regionOutcome struct {
		skipped                  bool
		err                      error
		off, mey, okm, act, pred algoRun
		walk                     float64
		requests                 int
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Default()
	}
	outs := parallel.Map(workers, cfg.Regions, func(w, region int) regionOutcome {
		box := boxes[region]
		testStream := destsIn(testTrips, box)
		histPts := destsIn(trainTrips, box)
		if len(testStream) < 30 || len(histPts) < 30 {
			return regionOutcome{skipped: true} // degenerate region
		}
		var out regionOutcome
		// Offline bound: solve on the test demand itself.
		offStations, offCost, err := solveOfflineOn(testStream, cfg.CellMeters, cfg.OpeningCost)
		if err != nil {
			return regionOutcome{err: err}
		}
		out.off = algoRun{stations: offStations, cost: offCost}

		// Meyerson.
		mey, err := core.NewMeyerson(cfg.OpeningCost, cfg.Seed+uint64(region)*13+1)
		if err != nil {
			return regionOutcome{err: err}
		}
		meyCost, _, err := core.RunStream(mey, testStream, cfg.OpeningCost)
		if err != nil {
			return regionOutcome{err: err}
		}
		out.mey = algoRun{stations: mey.Stations(), cost: meyCost}

		// Online k-means with the offline k as target.
		okm, err := core.NewOnlineKMeans(maxInt(len(offStations), 1), cfg.Seed+uint64(region)*13+2)
		if err != nil {
			return regionOutcome{err: err}
		}
		okmCost, _, err := core.RunStream(okm, testStream, cfg.OpeningCost)
		if err != nil {
			return regionOutcome{err: err}
		}
		out.okm = algoRun{stations: okm.Stations(), cost: okmCost}

		// E-sharing (actual): guided by the offline solution on the
		// actual test demand.
		actCost, actStations, actWalk, err := runESharing(offStations, histPts, testStream, cfg, region, 3)
		if err != nil {
			return regionOutcome{err: err}
		}
		out.act = algoRun{stations: actStations, cost: actCost}
		out.walk = actWalk
		out.requests = len(testStream)

		// E-sharing (predicted): the guide comes from history reshaped by
		// the predicted volume.
		predDemands := scaleDemands(histDemandsOrNil(histPts, cfg.CellMeters), predictedScale)
		predStations, err := solveOnDemands(predDemands, cfg.OpeningCost)
		if err != nil {
			return regionOutcome{err: err}
		}
		predCost, predAll, _, err := runESharing(predStations, histPts, testStream, cfg, region, 4)
		if err != nil {
			return regionOutcome{err: err}
		}
		out.pred = algoRun{stations: predAll, cost: predCost}
		return out
	})

	res := &Table5Result{Scatter: map[string][]Fig10Point{}}
	var totalRequests int
	var totalESWalk float64
	// Fold in region order so the float accumulations and scatter order
	// match the sequential loop exactly.
	for region, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		if out.skipped {
			continue
		}
		scatter := func(name string, run algoRun) {
			res.Scatter[name] = append(res.Scatter[name], Fig10Point{
				Region: region, Stations: len(run.stations), TotalKm: run.cost.Total() / 1000,
			})
		}
		accumulate(&res.Offline, "offline*", out.off.stations, out.off.cost)
		scatter("offline", out.off)
		accumulate(&res.Meyerson, "meyerson", out.mey.stations, out.mey.cost)
		scatter("meyerson", out.mey)
		accumulate(&res.OnlineKMeans, "online-kmeans", out.okm.stations, out.okm.cost)
		scatter("online-kmeans", out.okm)
		accumulate(&res.ESharingAct, "e-sharing (actual)", out.act.stations, out.act.cost)
		scatter("e-sharing-actual", out.act)
		totalESWalk += out.walk
		totalRequests += out.requests
		accumulate(&res.ESharingPred, "e-sharing (predicted)", out.pred.stations, out.pred.cost)
		scatter("e-sharing-predicted", out.pred)
	}
	if res.Offline.Stations == 0 {
		return nil, fmt.Errorf("experiments: every region degenerate; increase workload")
	}
	regions := float64(len(res.Scatter["offline"]))
	for _, row := range []*Table5Row{&res.Offline, &res.Meyerson, &res.OnlineKMeans, &res.ESharingAct, &res.ESharingPred} {
		row.Stations /= regions
	}
	if totalRequests > 0 {
		res.AvgWalkPerRequestM = totalESWalk / float64(totalRequests)
	}
	res.GapActualPct = 100 * (res.ESharingAct.TotalKm() - res.Offline.TotalKm()) / res.Offline.TotalKm()
	res.GapPredPct = 100 * (res.ESharingPred.TotalKm() - res.Offline.TotalKm()) / res.Offline.TotalKm()
	return res, nil
}

// runESharing streams testStream through Algorithm 2 seeded with
// landmarks; the returned cost includes the landmarks' space cost.
func runESharing(landmarks []geo.Point, histPts, testStream []geo.Point, cfg Table5Config, region, salt int) (core.Cost, []geo.Point, float64, error) {
	esCfg := core.DefaultESharingConfig()
	esCfg.Seed = cfg.Seed + uint64(region)*13 + uint64(salt)
	esCfg.TestEvery = 50
	esCfg.WindowSize = 60
	es, err := core.NewESharing(landmarks, cfg.OpeningCost, histPts, esCfg)
	if err != nil {
		return core.Cost{}, nil, 0, err
	}
	cost, _, err := core.RunStream(es, testStream, cfg.OpeningCost)
	if err != nil {
		return core.Cost{}, nil, 0, err
	}
	walk := cost.Walking
	cost.Opening += float64(len(landmarks)) * cfg.OpeningCost
	return cost, es.Stations(), walk, nil
}

func accumulate(row *Table5Row, name string, stations []geo.Point, cost core.Cost) {
	row.Name = name
	row.Stations += float64(len(stations))
	row.WalkingKm += cost.Walking / 1000
	row.SpaceKm += cost.Opening / 1000
}

func destsIn(trips []dataset.Trip, box geo.BBox) []geo.Point {
	var out []geo.Point
	for _, t := range trips {
		if box.Contains(t.End) {
			out = append(out, t.End)
		}
	}
	return out
}

func histDemandsOrNil(pts []geo.Point, cell float64) []core.Demand {
	demands, err := core.AggregateDemand(pts, cell)
	if err != nil {
		return nil
	}
	return demands
}

func scaleDemands(demands []core.Demand, scale float64) []core.Demand {
	if scale <= 0 {
		scale = 1
	}
	out := make([]core.Demand, len(demands))
	for i, d := range demands {
		out[i] = core.Demand{Loc: d.Loc, Arrivals: d.Arrivals * scale}
	}
	return out
}

func solveOnDemands(demands []core.Demand, openingCost float64) ([]geo.Point, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("experiments: no demand to plan on")
	}
	problem, err := core.UniformDemandProblem(demands, openingCost)
	if err != nil {
		return nil, err
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		return nil, err
	}
	return problem.Stations(sol), nil
}

// predictTestScale trains an LSTM on the training window's hourly totals
// and returns predictedTestVolume / trainVolumePerDay ratio relative to
// the historical per-day volume — the factor that reshapes historical
// per-cell demand into a prediction for the test window.
func predictTestScale(trips []dataset.Trip, cfg Table5Config) (float64, error) {
	series := dataset.HourlySeries(trips, workloadStart, 14*24)
	trainHours := cfg.TrainDays * 24
	train := series[:trainHours]
	testHours := len(series) - trainHours

	model, err := forecast.NewLSTM(forecast.LSTMConfig{
		Hidden: cfg.Hidden, Layers: 2, Lookback: 12,
		Epochs: cfg.Epochs, LearningRate: 0.01, ClipNorm: 1,
		Seed: cfg.Seed,
	})
	if err != nil {
		return 0, err
	}
	if err := model.Fit(train); err != nil {
		return 0, err
	}
	preds, err := model.Forecast(train, testHours)
	if err != nil {
		return 0, err
	}
	var predTotal, histTotal float64
	for _, v := range preds {
		if v > 0 {
			predTotal += v
		}
	}
	for _, v := range train {
		histTotal += v
	}
	if histTotal == 0 {
		return 1, nil
	}
	// Scale converts the full training-window per-cell counts into the
	// predicted test-window volume: predictedDemand(cell) =
	// histCount(cell) x predTotal/histTotal.
	return predTotal / histTotal, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Render writes Table V and a Fig. 10 summary.
func (r *Table5Result) Render(w io.Writer) {
	fprintf(w, "Table V — comparison of #parking and cost (km, summed over regions)\n")
	rule(w, 78)
	fprintf(w, "%-22s %10s %12s %12s %12s\n", "algorithm", "#parking", "walking", "space", "total")
	for _, row := range []Table5Row{r.Offline, r.Meyerson, r.OnlineKMeans, r.ESharingAct, r.ESharingPred} {
		fprintf(w, "%-22s %10.1f %12.1f %12.1f %12.1f\n",
			row.Name, row.Stations, row.WalkingKm, row.SpaceKm, row.TotalKm())
	}
	rule(w, 78)
	fprintf(w, "E-sharing gap over offline: actual %.0f%% (paper ~20%%), predicted %.0f%% (paper ~25%%)\n",
		r.GapActualPct, r.GapPredPct)
	fprintf(w, "avg walk per request (E-sharing actual): %.0f m (paper ~180 m)\n", r.AvgWalkPerRequestM)

	fprintf(w, "\nFig. 10 — total cost vs #parking per region\n")
	var names []string
	for name := range r.Scatter {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fprintf(w, "%s:\n", name)
		for _, p := range r.Scatter[name] {
			fprintf(w, "  region %2d: %3d stations, %8.1f km total\n", p.Region, p.Stations, p.TotalKm)
		}
	}
}

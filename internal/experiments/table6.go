package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/incentive"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table6Config parameterises the incentive evaluation (Figs. 11–12,
// Table VI).
type Table6Config struct {
	// Stations in a grid layout (paper field: the offline stations; a
	// grid isolates the incentive effect from placement).
	GridSide int
	// SpacingMeters between adjacent stations.
	SpacingMeters float64
	// Bikes in the fleet; LowTailFrac of them start low (Fig. 2(d)).
	Bikes       int
	LowTailFrac float64
	// Alphas are the incentive levels of Table VI.
	Alphas []float64
	// QValues sweeps the service cost for Fig. 12's x-axis.
	QValues []float64
	Seed    uint64
}

// DefaultTable6Config mirrors the evaluation.
func DefaultTable6Config() Table6Config {
	return Table6Config{
		GridSide:      5,
		SpacingMeters: 600,
		Bikes:         400,
		LowTailFrac:   0.2,
		Alphas:        []float64{0, 1, 0.7, 0.4},
		QValues:       []float64{1, 2, 5, 10, 20, 40},
		Seed:          16,
	}
}

// QuickTable6Config halves the fleet and sweeps two service costs.
func QuickTable6Config() Table6Config {
	cfg := DefaultTable6Config()
	cfg.Bikes = 200
	cfg.QValues = []float64{2, 10}
	return cfg
}

// Fig11Result captures the low-energy distributions before and after
// incentivising — the heatmap pair plus tour lengths.
type Fig11Result struct {
	// Before/After map station index to low-bike count.
	Before map[int]int `json:"before"`
	After  map[int]int `json:"after"`
	// Tour lengths in km over stations needing service.
	TourBeforeKm float64 `json:"tourBeforeKm"`
	TourAfterKm  float64 `json:"tourAfterKm"`
	// Sites needing charging.
	SitesBefore int `json:"sitesBefore"`
	SitesAfter  int `json:"sitesAfter"`
}

// Table6Row is one alpha's cost breakdown.
type Table6Row struct {
	Alpha          float64 `json:"alpha"`
	ServiceCost    float64 `json:"serviceCost"`
	DelayCost      float64 `json:"delayCost"`
	EnergyCost     float64 `json:"energyCost"`
	IncentivesPaid float64 `json:"incentivesPaid"`
	ChargedPct     float64 `json:"chargedPct"`
	MovingKm       float64 `json:"movingKm"`
}

// TotalCost sums the components.
func (r Table6Row) TotalCost() float64 {
	return r.ServiceCost + r.DelayCost + r.EnergyCost + r.IncentivesPaid
}

// Fig12Point is one (alpha, q) sample of total cost and charged fraction.
type Fig12Point struct {
	Alpha      float64 `json:"alpha"`
	Q          float64 `json:"q"`
	TotalCost  float64 `json:"totalCost"`
	ChargedPct float64 `json:"chargedPct"`
}

// Table6Result bundles Table VI, Fig. 11 and Fig. 12.
type Table6Result struct {
	Rows  []Table6Row  `json:"rows"`
	Fig11 Fig11Result  `json:"fig11"`
	Fig12 []Fig12Point `json:"fig12"`
	// BestAlpha is the alpha with minimum total cost (paper: 0.4).
	BestAlpha float64 `json:"bestAlpha"`
	// SavingPct is the best alpha's total-cost saving vs alpha=0
	// (paper: 47%).
	SavingPct float64 `json:"savingPct"`
	// DistanceSavingPct is the moving-distance saving (paper: 17.5%).
	DistanceSavingPct float64 `json:"distanceSavingPct"`
}

// RunTable6 regenerates Table VI and Figs. 11–12: identical initial fleet
// states are run through charging rounds at each incentive level, and the
// service cost is swept for Fig. 12.
func RunTable6(cfg Table6Config) (*Table6Result, error) {
	if cfg.GridSide < 2 || cfg.Bikes < 10 || len(cfg.Alphas) == 0 {
		return nil, fmt.Errorf("experiments: invalid table6 config %+v", cfg)
	}
	stations := stationGrid(cfg.GridSide, cfg.SpacingMeters)

	res := &Table6Result{}
	var baseRow *Table6Row
	bestTotal := 0.0
	for _, alpha := range cfg.Alphas {
		fleet, err := buildFleet(stations, cfg)
		if err != nil {
			return nil, err
		}
		simCfg := sim.DefaultChargingConfig(alpha)
		simCfg.Seed = cfg.Seed
		rep, err := sim.RunChargingRound(stations, fleet, simCfg)
		if err != nil {
			return nil, fmt.Errorf("alpha %v: %w", alpha, err)
		}
		row := Table6Row{
			Alpha:          alpha,
			ServiceCost:    rep.ServiceCost,
			DelayCost:      rep.DelayCost,
			EnergyCost:     rep.EnergyCost,
			IncentivesPaid: rep.IncentivesPaid,
			ChargedPct:     rep.ChargedPct,
			MovingKm:       rep.TourLength / 1000,
		}
		res.Rows = append(res.Rows, row)
		if alpha == 0 {
			baseRow = &res.Rows[len(res.Rows)-1]
			// Fig. 11 "before" panel comes from the alpha=0 run.
			res.Fig11.Before = rep.LowBefore
			res.Fig11.TourBeforeKm = rep.TourLength / 1000
			res.Fig11.SitesBefore = rep.StationsNeedingService
		}
		if alpha == 0.7 {
			// Fig. 11 "after" panel: a representative incentivised round.
			res.Fig11.After = rep.LowAfter
			res.Fig11.TourAfterKm = rep.TourLength / 1000
			res.Fig11.SitesAfter = rep.StationsNeedingService
		}
		if res.BestAlpha == 0 && alpha == cfg.Alphas[0] || row.TotalCost() < bestTotal {
			res.BestAlpha = alpha
			bestTotal = row.TotalCost()
		}
	}
	if baseRow == nil {
		return nil, fmt.Errorf("experiments: table6 needs alpha=0 in the sweep")
	}
	res.SavingPct = 100 * (baseRow.TotalCost() - bestTotal) / baseRow.TotalCost()
	if baseRow.MovingKm > 0 {
		bestKm := baseRow.MovingKm
		for _, row := range res.Rows {
			if row.Alpha != 0 && row.MovingKm < bestKm {
				bestKm = row.MovingKm
			}
		}
		res.DistanceSavingPct = 100 * (baseRow.MovingKm - bestKm) / baseRow.MovingKm
	}

	// Fig. 12: sweep q per alpha.
	for _, alpha := range cfg.Alphas {
		for _, q := range cfg.QValues {
			fleet, err := buildFleet(stations, cfg)
			if err != nil {
				return nil, err
			}
			simCfg := sim.DefaultChargingConfig(alpha)
			simCfg.Seed = cfg.Seed
			simCfg.Params = incentive.CostParams{
				ServicePerStop: q,
				DelayUnit:      simCfg.Params.DelayUnit,
				ChargePerBike:  simCfg.Params.ChargePerBike,
			}
			rep, err := sim.RunChargingRound(stations, fleet, simCfg)
			if err != nil {
				return nil, fmt.Errorf("fig12 alpha=%v q=%v: %w", alpha, q, err)
			}
			res.Fig12 = append(res.Fig12, Fig12Point{
				Alpha: alpha, Q: q,
				TotalCost:  rep.TotalCost(),
				ChargedPct: rep.ChargedPct,
			})
		}
	}
	return res, nil
}

func stationGrid(side int, spacing float64) []geo.Point {
	out := make([]geo.Point, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			out = append(out, geo.Pt(float64(c)*spacing, float64(r)*spacing))
		}
	}
	return out
}

// buildFleet recreates the identical initial fleet for every run: bikes
// scattered near stations with a seeded low-energy tail.
func buildFleet(stations []geo.Point, cfg Table6Config) (*energy.Fleet, error) {
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed + 7)
	for i := 1; i <= cfg.Bikes; i++ {
		st := stations[rng.IntN(len(stations))]
		loc := geo.Pt(st.X+rng.Float64()*60-30, st.Y+rng.Float64()*60-30)
		if err := fleet.Add(energy.Bike{ID: int64(i), Loc: loc, Level: 1}); err != nil {
			return nil, err
		}
	}
	if err := fleet.SeedLevels(stats.NewRNG(cfg.Seed+8), cfg.LowTailFrac); err != nil {
		return nil, err
	}
	return fleet, nil
}

// Render writes Table VI, the Fig. 11 heatmaps and the Fig. 12 sweep.
func (r *Table6Result) Render(w io.Writer) {
	fprintf(w, "Table VI — charging cost breakdown per incentive level α ($)\n")
	rule(w, 88)
	fprintf(w, "%-8s %10s %10s %10s %12s %10s %10s %10s\n",
		"alpha", "service", "delay", "energy", "incentives", "total", "%charged", "dist(km)")
	for _, row := range r.Rows {
		fprintf(w, "%-8.1f %10.0f %10.0f %10.0f %12.0f %10.0f %10.1f %10.1f\n",
			row.Alpha, row.ServiceCost, row.DelayCost, row.EnergyCost,
			row.IncentivesPaid, row.TotalCost(), row.ChargedPct, row.MovingKm)
	}
	rule(w, 88)
	fprintf(w, "best alpha: %.1f saving %.0f%% of total cost vs alpha=0 (paper: α=0.4, 47%%)\n",
		r.BestAlpha, r.SavingPct)
	fprintf(w, "moving-distance saving: %.1f%% (paper: 17.5%%)\n", r.DistanceSavingPct)

	fprintf(w, "\nFig. 11 — low-energy distribution before/after incentives\n")
	fprintf(w, "before: %d sites, tour %.1f km; after: %d sites, tour %.1f km\n",
		r.Fig11.SitesBefore, r.Fig11.TourBeforeKm, r.Fig11.SitesAfter, r.Fig11.TourAfterKm)
	renderHeat := func(name string, m map[int]int) {
		fprintf(w, "%s:", name)
		var idx []int
		for i := range m {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			fprintf(w, " s%d=%d", i, m[i])
		}
		fprintf(w, "\n")
	}
	renderHeat("  before", r.Fig11.Before)
	renderHeat("  after ", r.Fig11.After)

	fprintf(w, "\nFig. 12 — total cost and %%charged vs service cost q\n")
	fprintf(w, "%-8s %8s %12s %10s\n", "alpha", "q", "total", "%charged")
	for _, p := range r.Fig12 {
		fprintf(w, "%-8.1f %8.1f %12.0f %10.1f\n", p.Alpha, p.Q, p.TotalCost, p.ChargedPct)
	}
}

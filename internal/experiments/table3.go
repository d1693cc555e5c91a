package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Table3Config parameterises the penalty-function evaluation on synthetic
// request distributions (Fig. 9 and Table III).
type Table3Config struct {
	// Requests per trial per sector (paper: ~200).
	Requests int
	// Trials to average over (paper: 100).
	Trials int
	// FieldHalf is the half-width of the square field around the origin.
	FieldHalf float64
	// Tolerance is the penalty L (paper: 200 m).
	Tolerance float64
	// OpeningCost is the per-station space cost in metres.
	OpeningCost float64
	Seed        uint64
	// Workers bounds the parallel fan-out of the trial sweep; 0 means
	// parallel.Default(). Results are bit-identical at any value.
	Workers int
}

// DefaultTable3Config mirrors the paper's setting.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		Requests:    200,
		Trials:      100,
		FieldHalf:   1000,
		Tolerance:   200,
		OpeningCost: 5000,
		Seed:        9,
	}
}

// QuickTable3Config shrinks the trial count for a fast pass.
func QuickTable3Config() Table3Config {
	cfg := DefaultTable3Config()
	cfg.Trials = 10
	return cfg
}

// Table3Cell is the averaged cost of one (distribution, penalty) pair, in
// km as the paper reports.
type Table3Cell struct {
	WalkingKm float64 `json:"walkingKm"`
	SpaceKm   float64 `json:"spaceKm"`
	// Stations is the mean online stations opened (the Fig. 9 scatter
	// density).
	Stations float64 `json:"stations"`
}

// TotalKm returns walking + space.
func (c Table3Cell) TotalKm() float64 { return c.WalkingKm + c.SpaceKm }

// Table3Result maps distribution name -> penalty name -> averaged cost.
type Table3Result struct {
	Cells map[string]map[string]Table3Cell `json:"cells"`
	// Winner maps distribution name to the penalty with minimum total
	// cost (paper: uniform→I, poisson→III, normal→II).
	Winner map[string]string `json:"winner"`
}

// penaltyOrder fixes rendering order.
var penaltyOrder = []core.PenaltyType{core.NoPenalty, core.PenaltyTypeI, core.PenaltyTypeII, core.PenaltyTypeIII}

// distOrder fixes rendering order.
var distOrder = []string{"uniform", "poisson", "normal"}

// RunTable3 regenerates Table III (and the summary statistics behind
// Fig. 9): for each request distribution and penalty type, stream the
// requests through Algorithm 2 with a single landmark at the origin (the
// offline-derived parking) and average walking and space costs.
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	if cfg.Requests < 1 || cfg.Trials < 1 || cfg.FieldHalf <= 0 {
		return nil, fmt.Errorf("experiments: invalid table3 config %+v", cfg)
	}
	dists := map[string]stats.PointDist{
		"uniform": stats.UniformDist{Box: geo.NewBBox(
			geo.Pt(-cfg.FieldHalf, -cfg.FieldHalf), geo.Pt(cfg.FieldHalf, cfg.FieldHalf))},
		// The Poisson ring concentrates requests in the mid-range around
		// the landmark — the paper's "fall into the tolerance range of
		// Type III" case: a tight ring at ~1.6L, past the Type II cutoff
		// but inside Type III's tail.
		"poisson": stats.PoissonRadialDist{Center: geo.Pt(0, 0), Lambda: 16, Scale: cfg.Tolerance / 10},
		"normal":  stats.NormalDist{Center: geo.Pt(0, 0), StdDev: cfg.FieldHalf / 6},
	}

	res := &Table3Result{
		Cells:  map[string]map[string]Table3Cell{},
		Winner: map[string]string{},
	}
	for _, distName := range distOrder {
		dist := dists[distName]
		res.Cells[distName] = map[string]Table3Cell{}
		bestName, bestTotal := "", 1e18
		for _, pt := range penaltyOrder {
			cell, err := runPenaltyTrials(cfg, dist, pt)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", distName, pt, err)
			}
			res.Cells[distName][pt.String()] = cell
			// The winner is chosen among the actual penalties; the
			// paper's bold minima exclude the no-penalty column for
			// uniform (where no-penalty trivially minimises walking).
			if pt != core.NoPenalty && cell.TotalKm() < bestTotal {
				bestName, bestTotal = pt.String(), cell.TotalKm()
			}
		}
		res.Winner[distName] = bestName
	}
	return res, nil
}

// runPenaltyTrial runs a single trial: one seeded placer consuming one
// seeded request stream. The trial's entire randomness derives from its
// index (the seed formula below), so trials are independent tasks for
// the parallel sweep.
func runPenaltyTrial(cfg Table3Config, dist stats.PointDist, pt core.PenaltyType, trial int) (Table3Cell, error) {
	seed := cfg.Seed + uint64(trial)*1009 + uint64(pt)*7
	var placer core.OnlinePlacer
	if pt == core.NoPenalty {
		// The no-penalty column is the pure online baseline: fixed-f
		// Meyerson without the offline landmark or the doubling
		// schedule — it "has higher probabilities to establish new
		// parking", minimising walking at maximal space cost.
		mey, err := core.NewMeyerson(cfg.OpeningCost, seed)
		if err != nil {
			return Table3Cell{}, err
		}
		placer = mey
	} else {
		esCfg := core.ESharingConfig{
			Beta:           1,
			Tolerance:      cfg.Tolerance,
			TestEvery:      0, // penalty type is pinned per run
			InitialPenalty: pt,
			Seed:           seed,
		}
		// Single landmark at the origin: "the offline derived parking
		// locating at the origin".
		es, err := core.NewESharing([]geo.Point{geo.Pt(0, 0)}, cfg.OpeningCost, nil, esCfg)
		if err != nil {
			return Table3Cell{}, err
		}
		placer = es
	}
	stream := stats.SamplePoints(stats.NewRNG(seed^0xabcdef), dist, cfg.Requests)
	cost, decisions, err := core.RunStream(placer, stream, cfg.OpeningCost)
	if err != nil {
		return Table3Cell{}, err
	}
	opened := 0
	for _, d := range decisions {
		if d.Opened {
			opened++
		}
	}
	return Table3Cell{
		WalkingKm: cost.Walking / 1000,
		SpaceKm:   cost.Opening / 1000,
		Stations:  float64(opened),
	}, nil
}

func runPenaltyTrials(cfg Table3Config, dist stats.PointDist, pt core.PenaltyType) (Table3Cell, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Default()
	}
	type outcome struct {
		cell Table3Cell
		err  error
	}
	outs := parallel.Map(workers, cfg.Trials, func(w, trial int) outcome {
		cell, err := runPenaltyTrial(cfg, dist, pt, trial)
		return outcome{cell: cell, err: err}
	})
	// Fold in trial order: float sums are order-sensitive, so the fixed
	// fold keeps the averages bit-identical to the sequential loop.
	var cell Table3Cell
	for _, o := range outs {
		if o.err != nil {
			return Table3Cell{}, o.err
		}
		cell.WalkingKm += o.cell.WalkingKm
		cell.SpaceKm += o.cell.SpaceKm
		cell.Stations += o.cell.Stations
	}
	n := float64(cfg.Trials)
	cell.WalkingKm /= n
	cell.SpaceKm /= n
	cell.Stations /= n
	return cell, nil
}

// Render writes Table III.
func (r *Table3Result) Render(w io.Writer) {
	fprintf(w, "Table III — cost of penalty functions under request distributions (km)\n")
	rule(w, 78)
	fprintf(w, "%-10s %-14s %10s %12s %10s %10s\n",
		"distr.", "penalty", "walking", "public", "total", "#online")
	for _, distName := range distOrder {
		for _, pt := range penaltyOrder {
			cell := r.Cells[distName][pt.String()]
			marker := " "
			if r.Winner[distName] == pt.String() {
				marker = "*"
			}
			fprintf(w, "%-10s %-14s %10.2f %12.2f %9.2f%s %10.1f\n",
				distName, pt.String(), cell.WalkingKm, cell.SpaceKm,
				cell.TotalKm(), marker, cell.Stations)
		}
	}
	rule(w, 78)
	fprintf(w, "* = minimum total cost among penalties; paper's winners: uniform→type-I, poisson→type-III, normal→type-II\n")
	fprintf(w, "winners here: uniform→%s, poisson→%s, normal→%s\n",
		r.Winner["uniform"], r.Winner["poisson"], r.Winner["normal"])
}

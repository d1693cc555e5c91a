// Package sim orchestrates the charging-round simulation behind
// Figs. 11–12 and Table VI: the incentive phase, the operator's TSP tour
// under a work budget, and the cost accounting.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/incentive"
	"repro/internal/routing"
	"repro/internal/stats"
)

// ChargingConfig parameterises one charging round.
type ChargingConfig struct {
	// Alpha is the incentive level (0 disables the mechanism — the
	// Table VI baseline).
	Alpha float64
	// Params are the operator's unit costs.
	Params incentive.CostParams
	// SinkCount is the number of aggregation sites (default: ~1/3 of the
	// stations holding low bikes, at least 1).
	SinkCount int
	// Pickups is the number of user arrivals during the incentive phase
	// (default: 6x the low-bike count).
	Pickups int
	// WorkBudget is the operator's shift length (default 2 h).
	WorkBudget time.Duration
	// TravelSpeed is the service vehicle speed in m/s (default 6.0,
	// ~21 km/h urban).
	TravelSpeed float64
	// ServiceTimePerStop is the time spent charging at one station —
	// batteries are swapped "in a paralleled manner", so the cost is per
	// stop, not per bike (default 12 min).
	ServiceTimePerStop time.Duration
	// SkipThreshold implements the paper's remark: stations left with at
	// most this many low bikes are skipped this round and deferred to the
	// next service period.
	SkipThreshold int
	// User population: MaxExtraWalk ~ N(WalkMean, WalkStd²) clamped at 0,
	// MinReward ~ Exp(mean RewardMean).
	WalkMean, WalkStd float64
	RewardMean        float64
	// Seed drives users and pickup locations.
	Seed uint64
}

// DefaultChargingConfig returns the evaluation settings for a given alpha.
func DefaultChargingConfig(alpha float64) ChargingConfig {
	return ChargingConfig{
		Alpha:              alpha,
		Params:             incentive.DefaultCostParams(),
		WorkBudget:         2 * time.Hour,
		TravelSpeed:        6,
		ServiceTimePerStop: 12 * time.Minute,
		SkipThreshold:      2,
		WalkMean:           700,
		WalkStd:            250,
		RewardMean:         6,
		Seed:               1,
	}
}

func (c ChargingConfig) validate() error {
	switch {
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("sim: alpha %v outside [0,1]", c.Alpha)
	case c.WorkBudget <= 0:
		return fmt.Errorf("sim: work budget %v must be positive", c.WorkBudget)
	case c.TravelSpeed <= 0:
		return fmt.Errorf("sim: travel speed %v must be positive", c.TravelSpeed)
	case c.ServiceTimePerStop < 0:
		return fmt.Errorf("sim: service time %v < 0", c.ServiceTimePerStop)
	case c.SinkCount < 0:
		return fmt.Errorf("sim: sink count %d < 0", c.SinkCount)
	case c.Pickups < 0:
		return fmt.Errorf("sim: pickups %d < 0", c.Pickups)
	case c.SkipThreshold < 0:
		return fmt.Errorf("sim: skip threshold %d < 0", c.SkipThreshold)
	case c.WalkMean < 0 || c.WalkStd < 0 || c.RewardMean < 0:
		return fmt.Errorf("sim: negative user population parameters")
	}
	return c.Params.Validate()
}

// ChargingReport is the Table VI row for one round.
type ChargingReport struct {
	Alpha float64 `json:"alpha"`

	// LowBefore/LowAfter map station index to low-bike count before and
	// after the incentive phase (the Fig. 11 heatmaps).
	LowBefore map[int]int `json:"lowBefore"`
	LowAfter  map[int]int `json:"lowAfter"`

	StationsNeedingService int     `json:"stationsNeedingService"`
	StationsVisited        int     `json:"stationsVisited"`
	TourLength             float64 `json:"tourLengthM"`

	TotalLowBikes int     `json:"totalLowBikes"`
	ChargedBikes  int     `json:"chargedBikes"`
	ChargedPct    float64 `json:"chargedPct"`
	Relocated     int     `json:"relocated"`

	ServiceCost    float64 `json:"serviceCost"`
	DelayCost      float64 `json:"delayCost"`
	EnergyCost     float64 `json:"energyCost"`
	IncentivesPaid float64 `json:"incentivesPaid"`
}

// TotalCost sums the Table VI components.
func (r ChargingReport) TotalCost() float64 {
	return r.ServiceCost + r.DelayCost + r.EnergyCost + r.IncentivesPaid
}

// RunChargingRound simulates one service period: an incentive phase (when
// alpha > 0) that relocates low-energy bikes toward aggregation sinks,
// followed by the operator's TSP tour over the stations still needing
// service, truncated by the work budget. The fleet is mutated: relocated
// bikes move, bikes at visited stations are charged.
func RunChargingRound(stations []geo.Point, fleet *energy.Fleet, cfg ChargingConfig) (*ChargingReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("sim: no stations")
	}
	if fleet == nil {
		return nil, fmt.Errorf("sim: nil fleet")
	}
	rng := stats.NewRNGStream(cfg.Seed, stats.StreamCharging)

	low := fleet.GroupByStation(stations, math.Inf(1), true)
	report := &ChargingReport{
		Alpha:     cfg.Alpha,
		LowBefore: countByStation(low),
	}
	for _, ids := range low {
		report.TotalLowBikes += len(ids)
	}
	if report.TotalLowBikes == 0 {
		report.LowAfter = map[int]int{}
		report.ChargedPct = 100
		return report, nil
	}

	// Phase 1: incentives.
	if cfg.Alpha > 0 {
		if err := runIncentivePhase(stations, fleet, low, cfg, rng, report); err != nil {
			return nil, err
		}
		low = fleet.GroupByStation(stations, math.Inf(1), true)
	}
	report.LowAfter = countByStation(low)

	// Phase 2: operator tour over stations needing service, largest
	// loads first is implicit in the TSP ordering; the budget cuts the
	// tail.
	// The straggler skip rule is part of the incentive mechanism's
	// deferral policy ("the operator can skip those locations with only a
	// few ones left"); the no-incentive baseline must refill every site
	// holding a low bike.
	skip := cfg.SkipThreshold
	if cfg.Alpha == 0 {
		skip = 0
	}
	service := make([]int, 0, len(low))
	for i, ids := range low {
		if len(ids) > skip {
			service = append(service, i)
		}
	}
	sort.Ints(service)
	report.StationsNeedingService = len(service)
	if len(service) == 0 {
		report.ChargedPct = 100
		return report, nil
	}

	// Moving distance (Table VI): the full TSP route through every demand
	// site — the operator eventually traverses all of them across
	// periods.
	allPts := make([]geo.Point, len(service))
	for k, i := range service {
		allPts[k] = stations[i]
	}
	if _, fullLen, err := routing.Solve(allPts); err == nil {
		report.TourLength = fullLen
	} else {
		return nil, fmt.Errorf("sim: full tour: %w", err)
	}

	// Operator policy: the shift cannot always cover every site, so the
	// most loaded stations are scheduled first ("schedule the operators
	// ... to the low-energy demand sites") — the largest load-ranked
	// prefix whose TSP tour fits the work budget is served. This is what
	// makes aggregation pay: incentivised sinks concentrate bikes and are
	// served preferentially.
	byLoad := append([]int(nil), service...)
	sort.Slice(byLoad, func(a, b int) bool {
		la, lb := len(low[byLoad[a]]), len(low[byLoad[b]])
		if la != lb {
			return la > lb
		}
		return byLoad[a] < byLoad[b]
	})
	var chosen []int
	var order []int
	for m := len(byLoad); m >= 1; m-- {
		prefix := byLoad[:m]
		pts := make([]geo.Point, m)
		for k, i := range prefix {
			pts[k] = stations[i]
		}
		ord, length, err := routing.Solve(pts)
		if err != nil {
			return nil, fmt.Errorf("sim: tour: %w", err)
		}
		travel := time.Duration(length / cfg.TravelSpeed * float64(time.Second))
		need := travel + time.Duration(m)*cfg.ServiceTimePerStop
		if need <= cfg.WorkBudget {
			chosen, order = prefix, ord
			break
		}
	}
	for _, k := range order {
		stationIdx := chosen[k]
		report.StationsVisited++
		for _, id := range low[stationIdx] {
			if err := fleet.Charge(id); err != nil {
				return nil, fmt.Errorf("sim: charge bike %d: %w", id, err)
			}
			report.ChargedBikes++
		}
	}
	report.ChargedPct = 100 * float64(report.ChargedBikes) / float64(report.TotalLowBikes)

	// Cost accounting per Eq. 10 over every station needing service: the
	// operator must eventually visit all of them, so Table VI charges the
	// full n even when this shift only covers a prefix. Energy is paid per
	// battery actually refilled.
	n := float64(report.StationsNeedingService)
	report.ServiceCost = n * cfg.Params.ServicePerStop
	report.DelayCost = (n*n - n) / 2 * cfg.Params.DelayUnit
	report.EnergyCost = float64(report.ChargedBikes) * cfg.Params.ChargePerBike
	return report, nil
}

func runIncentivePhase(
	stations []geo.Point,
	fleet *energy.Fleet,
	low map[int][]int64,
	cfg ChargingConfig,
	rng *rand.Rand,
	report *ChargingReport,
) error {
	sinkCount := cfg.SinkCount
	if sinkCount == 0 {
		sinkCount = (len(low) + 3) / 4
		if sinkCount < 1 {
			sinkCount = 1
		}
	}
	sinks := incentive.PickSinks(low, sinkCount)
	if len(sinks) == 0 {
		return nil
	}
	mechCfg := incentive.DefaultMechanismConfig(cfg.Alpha)
	mechCfg.Params = cfg.Params
	mech, err := incentive.NewMechanism(mechCfg, stations, fleet, low, sinks)
	if err != nil {
		return fmt.Errorf("sim: mechanism: %w", err)
	}

	// Pickup stream: users appear at stations holding low bikes (weighted
	// by load) heading to random other stations — the app offers the
	// relocation deal on pickup.
	sources := make([]int, 0, len(low))
	for i, ids := range low {
		if len(ids) > 0 {
			sources = append(sources, i)
		}
	}
	sort.Ints(sources)
	// weights are built from the sorted sources, so they can never fall
	// out of alignment with them.
	weights := make([]float64, len(sources))
	for k, i := range sources {
		weights[k] = float64(len(low[i]))
	}
	pickups := cfg.Pickups
	if pickups == 0 {
		pickups = 4 * report.TotalLowBikes
	}
	for n := 0; n < pickups; n++ {
		si := stats.WeightedIndex(rng, weights)
		if si < 0 {
			break
		}
		from := sources[si]
		dest := stations[rng.IntN(len(stations))]
		user := incentive.User{
			MaxExtraWalk: math.Max(0, stats.Normal(rng, cfg.WalkMean, cfg.WalkStd)),
			MinReward:    stats.Exponential(rng, 1/math.Max(cfg.RewardMean, 1e-9)),
		}
		if _, _, err := mech.HandlePickup(incentive.Pickup{From: from, Dest: dest, Profile: user}); err != nil {
			return fmt.Errorf("sim: pickup %d: %w", n, err)
		}
		// Keep the source weights in sync as stations drain.
		weights[si] = float64(mech.LowRemaining(from))
	}
	res := mech.Result()
	report.Relocated = res.Relocated
	report.IncentivesPaid = res.IncentivesPaid
	return nil
}

func countByStation(low map[int][]int64) map[int]int {
	out := make(map[int]int, len(low))
	for i, ids := range low {
		if len(ids) > 0 {
			out[i] = len(ids)
		}
	}
	return out
}

// Package esharing is the public API of the E-Sharing reproduction: a
// two-tier optimisation framework for dockless electric bike sharing
// (Zhou, Wang, Yang, Wei — ICDCS 2020).
//
// Tier one plans parking locations: an offline 1.61-factor facility
// location solver digests historical demand into a landmark station set,
// and an online algorithm with deviation penalty assigns live trip
// requests, opening new stations only when the request stream justifies
// it (validated continuously with a 2-D Kolmogorov–Smirnov test). Tier
// two cuts charging cost by paying users small incentives to ride
// low-battery bikes to aggregation sites, shrinking the operator's
// service tour.
//
// Quick start:
//
//	sys, err := esharing.New(esharing.DefaultConfig())
//	// feed historical destinations
//	plan, err := sys.PlanOffline(history)
//	// stream live requests
//	decision, err := sys.Request(esharing.Pt(120, 480))
//	// run a charging round with incentives
//	report, err := sys.ChargingRound()
//
// See the examples/ directory for runnable programs.
package esharing

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Point is a planar location in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// NewRNG returns a deterministic seeded random source — the same
// construction the system uses internally — for generating reproducible
// synthetic demand to feed PlanOffline or Request. Equal seeds yield
// identical streams on every platform.
func NewRNG(seed uint64) *rand.Rand { return stats.NewRNG(seed) }

// Dist returns the Euclidean distance to q in metres.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

func toGeo(p Point) geo.Point   { return geo.Point(p) }
func fromGeo(p geo.Point) Point { return Point(p) }

func toGeoSlice(pts []Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = toGeo(p)
	}
	return out
}

func fromGeoSlice(pts []geo.Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = fromGeo(p)
	}
	return out
}

// Config tunes the system. Zero values take the documented defaults via
// DefaultConfig; New validates everything.
type Config struct {
	// OpeningCost is the space-occupation cost per station, expressed in
	// walking-distance metres (paper mean: 10 km).
	OpeningCost float64
	// GridCellMeters is the demand-aggregation granularity for offline
	// planning (paper: 100 m).
	GridCellMeters float64
	// Tolerance is the deviation-penalty level L (paper: 200 m).
	Tolerance float64
	// Beta controls opening-cost doubling: the working cost doubles after
	// every Beta·k online openings (Algorithm 2).
	Beta float64
	// TestEvery runs the 2-D KS test after this many live requests;
	// 0 disables penalty switching.
	TestEvery int
	// Alpha is the tier-two incentive level in [0, 1].
	Alpha float64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		OpeningCost:    10000,
		GridCellMeters: 100,
		Tolerance:      200,
		Beta:           1,
		TestEvery:      100,
		Alpha:          0.4,
		Seed:           1,
	}
}

func (c Config) validate() error {
	switch {
	case c.OpeningCost <= 0:
		return fmt.Errorf("esharing: opening cost %v must be positive", c.OpeningCost)
	case c.GridCellMeters <= 0:
		return fmt.Errorf("esharing: grid cell %v must be positive", c.GridCellMeters)
	case c.Tolerance <= 0:
		return fmt.Errorf("esharing: tolerance %v must be positive", c.Tolerance)
	case c.Beta < 1:
		return fmt.Errorf("esharing: beta %v < 1", c.Beta)
	case c.TestEvery < 0:
		return fmt.Errorf("esharing: test interval %d < 0", c.TestEvery)
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("esharing: alpha %v outside [0,1]", c.Alpha)
	}
	return nil
}

// Errors returned by System methods.
var (
	// ErrNotPlanned is returned by Request before PlanOffline succeeds.
	ErrNotPlanned = errors.New("esharing: offline plan missing; call PlanOffline first")
	// ErrNoHistory is returned by PlanOffline with no destinations.
	ErrNoHistory = errors.New("esharing: empty demand history")
)

// System is the E-Sharing backend: tier-one placement plus tier-two
// charging optimisation over a shared fleet. It is not safe for
// concurrent use; for concurrent access over HTTP, run the shipped
// esharing-server binary (cmd/esharing-server), which serialises
// placement decisions while serving reads lock-free.
type System struct {
	cfg    Config
	placer *core.ESharing
	fleet  *energy.Fleet
}

// New validates cfg and returns an unplanned system.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, fleet: fleet}, nil
}

// PlanSummary reports the offline solution.
type PlanSummary struct {
	// Stations are the landmark parking locations.
	Stations []Point `json:"stations"`
	// WalkingCost and OpeningCost are the Eq. 1 components on the
	// historical demand.
	WalkingCost float64 `json:"walkingCost"`
	OpeningCost float64 `json:"openingCost"`
}

// TotalCost returns the Eq. 1 objective of the plan.
func (p PlanSummary) TotalCost() float64 { return p.WalkingCost + p.OpeningCost }

// PlanOffline aggregates historical destinations into grid-cell demands,
// solves the offline PLP with the 1.61-factor greedy, and initialises the
// online placer with the result as landmarks. Calling it again replans
// from scratch (e.g. on fresh predictions).
func (s *System) PlanOffline(history []Point) (PlanSummary, error) {
	if len(history) == 0 {
		return PlanSummary{}, ErrNoHistory
	}
	places := geo.FoldPoints(toGeoSlice(history))
	demands, err := core.AggregateHistory(places, s.cfg.GridCellMeters)
	if err != nil {
		return PlanSummary{}, fmt.Errorf("aggregate demand: %w", err)
	}
	problem, err := core.UniformDemandProblem(demands, s.cfg.OpeningCost)
	if err != nil {
		return PlanSummary{}, fmt.Errorf("build problem: %w", err)
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		return PlanSummary{}, fmt.Errorf("offline solve: %w", err)
	}
	cost, err := problem.Evaluate(sol)
	if err != nil {
		return PlanSummary{}, fmt.Errorf("evaluate plan: %w", err)
	}
	landmarks := problem.Stations(sol)

	esCfg := core.ESharingConfig{
		Beta:           s.cfg.Beta,
		Tolerance:      s.cfg.Tolerance,
		TestEvery:      s.cfg.TestEvery,
		InitialPenalty: core.PenaltyTypeII,
		AdaptTolerance: true,
		Seed:           s.cfg.Seed,
	}
	placer, err := core.NewESharingHistory(landmarks, s.cfg.OpeningCost, places, esCfg)
	if err != nil {
		return PlanSummary{}, fmt.Errorf("online placer: %w", err)
	}
	s.placer = placer
	return PlanSummary{
		Stations:    fromGeoSlice(landmarks),
		WalkingCost: cost.Walking,
		OpeningCost: cost.Opening,
	}, nil
}

// Decision is the response to one live trip request.
type Decision struct {
	// Station is the assigned parking location.
	Station Point `json:"station"`
	// Opened reports whether this request established a new station.
	Opened bool `json:"opened"`
	// WalkMeters is the rider's walk from the destination to the station.
	WalkMeters float64 `json:"walkMeters"`
}

// Request assigns a live trip destination to a parking location per
// Algorithm 2.
func (s *System) Request(dest Point) (Decision, error) {
	if s.placer == nil {
		return Decision{}, ErrNotPlanned
	}
	d, err := s.placer.Place(toGeo(dest))
	if err != nil {
		return Decision{}, err
	}
	return Decision{Station: fromGeo(d.Station), Opened: d.Opened, WalkMeters: d.Walk}, nil
}

// Stations returns the currently established parking locations.
func (s *System) Stations() []Point {
	if s.placer == nil {
		return nil
	}
	return fromGeoSlice(s.placer.Stations())
}

// Similarity returns the live-vs-historical similarity percentage from
// the most recent KS test (100 before any test).
func (s *System) Similarity() float64 {
	if s.placer == nil {
		return 100
	}
	return s.placer.LastSimilarity()
}

// AddBike registers an E-bike with the fleet.
func (s *System) AddBike(id int64, loc Point, level float64) error {
	return s.fleet.Add(energy.Bike{ID: id, Loc: toGeo(loc), Level: level})
}

// RideBike moves a bike to dest, draining its battery.
func (s *System) RideBike(id int64, dest Point) error {
	return s.fleet.Ride(id, toGeo(dest))
}

// BikeStatus reports one bike's position and charge level.
type BikeStatus struct {
	ID    int64   `json:"id"`
	Loc   Point   `json:"loc"`
	Level float64 `json:"level"`
}

// Bikes returns the fleet snapshot.
func (s *System) Bikes() []BikeStatus {
	bikes := s.fleet.Bikes()
	out := make([]BikeStatus, len(bikes))
	for i, b := range bikes {
		out[i] = BikeStatus{ID: b.ID, Loc: fromGeo(b.Loc), Level: b.Level}
	}
	return out
}

// ChargingReport summarises one tier-two service round.
type ChargingReport struct {
	Alpha                  float64 `json:"alpha"`
	TotalLowBikes          int     `json:"totalLowBikes"`
	Relocated              int     `json:"relocated"`
	StationsNeedingService int     `json:"stationsNeedingService"`
	StationsVisited        int     `json:"stationsVisited"`
	ChargedBikes           int     `json:"chargedBikes"`
	ChargedPct             float64 `json:"chargedPct"`
	TourLengthMeters       float64 `json:"tourLengthMeters"`
	ServiceCost            float64 `json:"serviceCost"`
	DelayCost              float64 `json:"delayCost"`
	EnergyCost             float64 `json:"energyCost"`
	IncentivesPaid         float64 `json:"incentivesPaid"`
}

// TotalCost sums the cost components.
func (r ChargingReport) TotalCost() float64 {
	return r.ServiceCost + r.DelayCost + r.EnergyCost + r.IncentivesPaid
}

// ChargingRound runs one tier-two service period with the configured
// incentive level: users aggregate low-battery bikes toward sinks, then
// the operator tours the remaining demand sites and charges batteries.
// The fleet state is updated in place.
func (s *System) ChargingRound() (ChargingReport, error) {
	if s.placer == nil {
		return ChargingReport{}, ErrNotPlanned
	}
	cfg := sim.DefaultChargingConfig(s.cfg.Alpha)
	cfg.Seed = s.cfg.Seed
	rep, err := sim.RunChargingRound(s.placer.Stations(), s.fleet, cfg)
	if err != nil {
		return ChargingReport{}, err
	}
	return ChargingReport{
		Alpha:                  rep.Alpha,
		TotalLowBikes:          rep.TotalLowBikes,
		Relocated:              rep.Relocated,
		StationsNeedingService: rep.StationsNeedingService,
		StationsVisited:        rep.StationsVisited,
		ChargedBikes:           rep.ChargedBikes,
		ChargedPct:             rep.ChargedPct,
		TourLengthMeters:       rep.TourLength,
		ServiceCost:            rep.ServiceCost,
		DelayCost:              rep.DelayCost,
		EnergyCost:             rep.EnergyCost,
		IncentivesPaid:         rep.IncentivesPaid,
	}, nil
}

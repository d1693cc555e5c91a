// Package core implements the Parking Location Placement (PLP) problem of
// E-Sharing Section III: the cost model of Eq. 1, the offline 1.61-factor
// greedy (Algorithm 1), Meyerson's online facility location and the online
// k-means baselines, the deviation-penalty functions (Eqs. 6–8), and the
// paper's online placement algorithm with deviation penalty (Algorithm 2).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geo"
)

// Demand is an aggregated arrival point: Arrivals users end their trips at
// Loc (the centroid of a grid). User dissatisfaction for assigning it to a
// parking p is Arrivals · dist(Loc, p) (Definition 1).
type Demand struct {
	Loc      geo.Point `json:"loc"`
	Arrivals float64   `json:"arrivals"`
}

// Problem is an offline PLP instance: demands double as the candidate
// parking set (the paper selects parking among the grid centroids), and
// Opening[i] is the space-occupation cost f_i of establishing a parking at
// candidate i (Definition 2).
type Problem struct {
	Demands []Demand
	Opening []float64
}

// Errors shared by the solvers.
var (
	// ErrEmptyProblem is returned for instances with no demands.
	ErrEmptyProblem = errors.New("core: empty problem")
	// ErrNoStations is returned when an operation requires at least one
	// established parking location.
	ErrNoStations = errors.New("core: no stations")
)

// NewProblem validates and builds an instance. Arrivals must be positive
// and finite, locations finite and opening costs non-negative and finite,
// and the demands close enough together that walk costs and their sums
// stay finite.
func NewProblem(demands []Demand, opening []float64) (*Problem, error) {
	if len(demands) == 0 {
		return nil, ErrEmptyProblem
	}
	if len(demands) != len(opening) {
		return nil, fmt.Errorf("core: %d demands but %d opening costs", len(demands), len(opening))
	}
	lo, hi := demands[0].Loc, demands[0].Loc
	maxArrivals := 0.0
	for i, d := range demands {
		if !(d.Arrivals > 0) || math.IsInf(d.Arrivals, 1) {
			return nil, fmt.Errorf("core: demand %d has arrivals %v, want positive and finite", i, d.Arrivals)
		}
		if !d.Loc.IsFinite() {
			return nil, fmt.Errorf("core: demand %d has non-finite location", i)
		}
		lo = geo.Pt(min(lo.X, d.Loc.X), min(lo.Y, d.Loc.Y))
		hi = geo.Pt(max(hi.X, d.Loc.X), max(hi.Y, d.Loc.Y))
		maxArrivals = max(maxArrivals, d.Arrivals)
	}
	maxOpening := 0.0
	for i, f := range opening {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("core: opening cost %d is %v", i, f)
		}
		maxOpening = max(maxOpening, f)
	}
	// Float subtraction, squaring, sqrt and product are monotone, so no
	// walk cost exceeds the heaviest demand times the bounding-box
	// diagonal. The offline greedy adds an opening cost to sums of up to n
	// of them, less savings bounded the same way; the factor 4 covers
	// that and the rounding of the sums. An overflow there would turn a
	// ratio into NaN, which never wins a comparison, and the greedy would
	// never connect another client.
	maxWalk := maxArrivals * lo.Dist(hi)
	if math.IsInf(4*float64(len(demands))*maxWalk+maxOpening, 0) {
		return nil, fmt.Errorf("core: demands span %v m: walk costs overflow float64", lo.Dist(hi))
	}
	return &Problem{
		Demands: append([]Demand(nil), demands...),
		Opening: append([]float64(nil), opening...),
	}, nil
}

// UniformProblem builds an instance where every point has one arrival and
// the same opening cost — the setting of the Fig. 4/6 examples.
func UniformProblem(points []geo.Point, openingCost float64) (*Problem, error) {
	demands := make([]Demand, len(points))
	opening := make([]float64, len(points))
	for i, p := range points {
		demands[i] = Demand{Loc: p, Arrivals: 1}
		opening[i] = openingCost
	}
	return NewProblem(demands, opening)
}

// Walk returns the dissatisfaction cost c_ij of assigning demand j to
// candidate i.
func (p *Problem) Walk(i, j int) float64 {
	return p.Demands[j].Arrivals * p.Demands[i].Loc.Dist(p.Demands[j].Loc)
}

// Solution is an offline assignment: Open lists the chosen candidate
// indices and Assign maps every demand to one of them (by index into
// p.Demands, which must be an opened candidate).
type Solution struct {
	Open   []int
	Assign []int
}

// Cost breaks a solution's objective into the Eq. 1 components.
type Cost struct {
	Walking float64 `json:"walking"`
	Opening float64 `json:"opening"`
}

// Total returns the Eq. 1 objective.
func (c Cost) Total() float64 { return c.Walking + c.Opening }

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("walking=%.1f opening=%.1f total=%.1f", c.Walking, c.Opening, c.Total())
}

// Evaluate computes the Eq. 1 cost of sol on p, validating feasibility:
// every demand must be assigned to an opened candidate.
func (p *Problem) Evaluate(sol *Solution) (Cost, error) {
	if len(sol.Assign) != len(p.Demands) {
		return Cost{}, fmt.Errorf("core: %d assignments for %d demands", len(sol.Assign), len(p.Demands))
	}
	openSet := make(map[int]bool, len(sol.Open))
	var cost Cost
	for _, i := range sol.Open {
		if i < 0 || i >= len(p.Demands) {
			return Cost{}, fmt.Errorf("core: opened candidate %d out of range", i)
		}
		if openSet[i] {
			return Cost{}, fmt.Errorf("core: candidate %d opened twice", i)
		}
		openSet[i] = true
		cost.Opening += p.Opening[i]
	}
	for j, i := range sol.Assign {
		if !openSet[i] {
			return Cost{}, fmt.Errorf("core: demand %d assigned to unopened candidate %d", j, i)
		}
		cost.Walking += p.Walk(i, j)
	}
	return cost, nil
}

// Stations returns the planar locations of the opened candidates.
func (p *Problem) Stations(sol *Solution) []geo.Point {
	out := make([]geo.Point, len(sol.Open))
	for k, i := range sol.Open {
		out[k] = p.Demands[i].Loc
	}
	return out
}

// ReassignNearest rewrites sol.Assign so every demand uses its nearest
// opened candidate; it never increases the objective.
func (p *Problem) ReassignNearest(sol *Solution) error {
	if len(sol.Open) == 0 {
		return ErrNoStations
	}
	for j := range p.Demands {
		best, bestCost := -1, math.Inf(1)
		for _, i := range sol.Open {
			if c := p.Walk(i, j); c < bestCost {
				best, bestCost = i, c
			}
		}
		sol.Assign[j] = best
	}
	return nil
}

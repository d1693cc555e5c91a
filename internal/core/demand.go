package core

import (
	"repro/internal/geo"
)

// AggregateDemand is AggregateHistory over destination points, each
// counted once.
func AggregateDemand(pts []geo.Point, cell float64) ([]Demand, error) {
	return AggregateHistory(geo.FoldPoints(pts), cell)
}

// AggregateHistory bins a destination history into square grid cells of
// the given side length (metres), returning one Demand per non-empty
// cell in row-major order, located at the cell centroid with arrivals
// equal to the number of destinations in it — the paper's offline demand
// aggregation (Section IV-A). Points on the grid's outer edge clamp into
// the last cell. Arrivals are integer sums, exact in float64 below 2^53,
// so a history folded into places aggregates exactly as its rows do.
//
// Degenerate inputs are handled: when the points' bounding box has zero
// width or height (a single destination, or collinear destinations along
// an axis), the box is padded by one cell on every side so the grid is
// always valid. A box needing more than geo.MaxGridCells cells — a
// history spanning continents — fails with geo.ErrGridTooLarge instead
// of allocating the dense count grid.
func AggregateHistory(h geo.Multiset, cell float64) ([]Demand, error) {
	box := geo.Bound(h.Points())
	if box.Width() <= 0 || box.Height() <= 0 {
		box = geo.NewBBox(
			geo.Pt(box.MinX-cell, box.MinY-cell),
			geo.Pt(box.MaxX+cell, box.MaxY+cell),
		)
	}
	grid, err := geo.NewGrid(box, cell)
	if err != nil {
		return nil, err
	}
	var demands []Demand
	for idx, n := range grid.Histogram(h) {
		if n == 0 {
			continue
		}
		c := geo.Cell{Col: idx % grid.Cols(), Row: idx / grid.Cols()}
		demands = append(demands, Demand{Loc: grid.Centroid(c), Arrivals: float64(n)})
	}
	return demands, nil
}

// HistoryProblem is the offline instance planned from a trip history:
// the destinations aggregated into cells of the given side (metres),
// every candidate costing opening. It is the one path from historical
// destinations to Algorithm 1's input.
func HistoryProblem(dests geo.Multiset, cell, opening float64) (*Problem, error) {
	demands, err := AggregateHistory(dests, cell)
	if err != nil {
		return nil, err
	}
	return UniformDemandProblem(demands, opening)
}

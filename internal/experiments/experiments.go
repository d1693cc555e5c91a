// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each RunX function is deterministic for a given
// configuration, returns a structured result, and renders the same
// rows/series the paper reports. Catalog lists every runner with its
// names and its default and quick configurations; the cmd/esharing-bench
// binary and the repository's benchmarks read it.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/stats"
)

// fprintf discards the error: experiment rendering writes to in-memory or
// terminal writers where failures are not actionable.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// rule renders a horizontal separator of the given width.
func rule(w io.Writer, width int) {
	fprintf(w, "%s\n", strings.Repeat("-", width))
}

// cityWorkload is the shared synthetic Mobike-like workload: 14 days of
// trips in a 3×3 km field with POI structure (the dataset substitution
// described in DESIGN.md).
func cityWorkload(seed uint64, weekday, weekend int) ([]dataset.Trip, error) {
	return dataset.Generate(dataset.Config{
		Days:         14,
		TripsWeekday: weekday,
		TripsWeekend: weekend,
		Seed:         seed,
	})
}

// workloadStart is the first day of the generated window (matches
// dataset.Config defaults: 2017-05-10, a Wednesday).
var workloadStart = time.Date(2017, time.May, 10, 0, 0, 0, 0, time.UTC)

// solveOfflineOn aggregates destination points onto a grid and solves the
// offline PLP, returning the landmark stations and the Eq. 1 cost.
func solveOfflineOn(dests []geo.Point, cellMeters, openingCost float64) ([]geo.Point, core.Cost, error) {
	problem, err := core.HistoryProblem(geo.FoldPoints(dests), cellMeters, openingCost)
	if err != nil {
		return nil, core.Cost{}, err
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		return nil, core.Cost{}, err
	}
	cost, err := problem.Evaluate(sol)
	if err != nil {
		return nil, core.Cost{}, err
	}
	return problem.Stations(sol), cost, nil
}

// evaluateOnDemands measures the Eq. 1 cost of a fixed station set
// serving grid demands: each demand walks to its nearest station, each
// station costs openingCost.
func evaluateOnDemands(stations []geo.Point, demands []core.Demand, openingCost float64) core.Cost {
	var cost core.Cost
	cost.Opening = float64(len(stations)) * openingCost
	for _, d := range demands {
		_, dist := geo.Nearest(d.Loc, stations)
		cost.Walking += d.Arrivals * dist
	}
	return cost
}

// sampleField draws n points from dist with a fresh seeded RNG.
func sampleField(seed uint64, dist stats.PointDist, n int) []geo.Point {
	return stats.SamplePoints(stats.NewRNG(seed), dist, n)
}

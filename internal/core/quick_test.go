package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/stats"
)

// Property-based tests (testing/quick) on the core invariants.

// boundedPoints maps arbitrary uint16 pairs into a 2 km field, giving
// quick a well-conditioned point generator.
func boundedPoints(raw []uint32) []geo.Point {
	pts := make([]geo.Point, 0, len(raw))
	for _, r := range raw {
		pts = append(pts, geo.Pt(float64(r%2000), float64((r>>16)%2000)))
	}
	return pts
}

func TestQuickPenaltyInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	property := func(rawType uint8, rawTol uint16, rawC uint32) bool {
		typ := PenaltyType(int(rawType)%4 + 1)
		tol := float64(rawTol%2000) + 1
		c := float64(rawC % 10000)
		p, err := NewPenalty(typ, tol)
		if err != nil {
			return false
		}
		v := p.Eval(c)
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
		// Monotone non-increasing: g(c) >= g(c + delta).
		return v >= p.Eval(c+137)-1e-12
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOfflineFeasibleAndBounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	property := func(raw []uint32, rawOpen uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 25 {
			raw = raw[:25]
		}
		pts := boundedPoints(raw)
		opening := float64(rawOpen%5000) + 100
		problem, err := UniformProblem(pts, opening)
		if err != nil {
			return false
		}
		sol, err := SolveOffline(problem)
		if err != nil {
			return false
		}
		cost, err := problem.Evaluate(sol)
		if err != nil {
			return false // infeasible solution
		}
		// Two trivial feasible solutions upper-bound OPT: a single
		// station at point 0, and a station everywhere. The greedy is a
		// 1.61-approximation of OPT, hence bounded by 1.61x either.
		single := opening
		for j := range pts {
			single += pts[0].Dist(pts[j])
		}
		everywhere := opening * float64(len(pts))
		bound := math.Min(single, everywhere)
		return cost.Total() <= 1.61*bound+1e-6
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMeyersonDecisionsConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	property := func(raw []uint32, seed uint64) bool {
		pts := boundedPoints(raw)
		if len(pts) == 0 {
			return true
		}
		m, err := NewMeyerson(3000, seed)
		if err != nil {
			return false
		}
		for _, p := range pts {
			d, err := m.Place(p)
			if err != nil {
				return false
			}
			if d.Opened && d.Walk != 0 {
				return false
			}
			if !d.Opened && d.Walk < 0 {
				return false
			}
			// The reported station must exist in the placer's set.
			stations := m.Stations()
			if d.StationIndex < 0 || d.StationIndex >= len(stations) {
				return false
			}
			if stations[d.StationIndex] != d.Station {
				return false
			}
		}
		return len(m.Stations()) <= len(pts)
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickESharingWalkNeverExceedsNearestAtDecision(t *testing.T) {
	// For assigned (non-opened) requests, the reported walk must equal
	// the distance to the reported station.
	cfg := &quick.Config{MaxCount: 50}
	property := func(raw []uint32, seed uint64) bool {
		pts := boundedPoints(raw)
		if len(pts) == 0 {
			return true
		}
		esCfg := DefaultESharingConfig()
		esCfg.TestEvery = 0
		esCfg.Seed = seed
		es, err := NewESharing([]geo.Point{geo.Pt(1000, 1000)}, 5000, nil, esCfg)
		if err != nil {
			return false
		}
		for _, p := range pts {
			d, err := es.Place(p)
			if err != nil {
				return false
			}
			if !d.Opened && math.Abs(d.Walk-p.Dist(d.Station)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRunStreamCostMatchesDecisions(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	property := func(raw []uint32, seed uint64) bool {
		pts := boundedPoints(raw)
		if len(pts) == 0 {
			return true
		}
		m, err := NewOnlineKMeans(3, seed)
		if err != nil {
			return false
		}
		cost, decisions, err := RunStream(m, pts, 4000)
		if err != nil {
			return false
		}
		var walk float64
		opened := 0
		for _, d := range decisions {
			walk += d.Walk
			if d.Opened {
				opened++
			}
		}
		return math.Abs(cost.Walking-walk) < 1e-9 &&
			math.Abs(cost.Opening-float64(opened)*4000) < 1e-9
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickPolyPenaltyRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	property := func(raw []uint32, degRaw uint8) bool {
		if len(raw) < 15 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		distances := make([]float64, len(raw))
		for i, r := range raw {
			distances[i] = float64(r % 100000)
		}
		degree := int(degRaw)%6 + 1
		p, err := FitPolyPenalty(distances, degree)
		if err != nil {
			// Degenerate samples (e.g. all zero) are allowed to fail.
			return true
		}
		for c := 0.0; c <= p.scale*1.2; c += p.scale / 23 {
			v := p.Eval(c)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOfflineNeverBeatsBruteForceOnTiny(t *testing.T) {
	// Re-checked with quick-generated instances (complements the seeded
	// approximation-factor test).
	cfg := &quick.Config{MaxCount: 25}
	property := func(raw []uint32, rawOpen uint16) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 7 {
			raw = raw[:7]
		}
		pts := boundedPoints(raw)
		opening := float64(rawOpen%3000) + 50
		problem, err := UniformProblem(pts, opening)
		if err != nil {
			return false
		}
		sol, err := SolveOffline(problem)
		if err != nil {
			return false
		}
		cost, err := problem.Evaluate(sol)
		if err != nil {
			return false
		}
		opt := bruteForceOptimum(problem)
		return cost.Total() >= opt-1e-6 && cost.Total() <= 1.61*opt+1e-6
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// Exercise stats integration: similarity of identical uniform batches is
// high for any seed.
func TestQuickSelfSimilarity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	property := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 800)}
		a := stats.SamplePoints(rng, dist, 80)
		b := stats.SamplePoints(rng, dist, 80)
		d, err := stats.Peacock2DFast(a, b)
		if err != nil {
			return false
		}
		return stats.Similarity(d) > 55 // same distribution: well above disjoint
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

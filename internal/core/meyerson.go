package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/geo"
	"repro/internal/stats"
)

// Decision records one streaming placement decision.
type Decision struct {
	// Station is the assigned parking location.
	Station geo.Point
	// StationIndex identifies the station within the placer's set.
	StationIndex int
	// Opened reports whether the request caused a new parking.
	Opened bool
	// Walk is the distance from the request to the assigned station.
	Walk float64
}

// OnlinePlacer is a streaming PLP algorithm: each destination request
// receives an irrevocable station assignment.
type OnlinePlacer interface {
	// Place handles one destination request.
	Place(dest geo.Point) (Decision, error)
	// Stations returns the currently established parking locations.
	Stations() []geo.Point
	// Name identifies the algorithm in reports.
	Name() string
}

// Meyerson implements Meyerson's randomized online facility location
// (FOCS 2001), the paper's first online baseline: a request at distance d
// from the nearest open facility opens a new one with probability
// min(d/f, 1), otherwise it is assigned to that facility.
type Meyerson struct {
	OpeningCost float64
	rng         *rand.Rand
	index       *geo.DynamicIndex
}

var _ OnlinePlacer = (*Meyerson)(nil)

// NewMeyerson validates the opening cost and builds the placer.
func NewMeyerson(openingCost float64, seed uint64) (*Meyerson, error) {
	if openingCost <= 0 {
		return nil, fmt.Errorf("core: meyerson opening cost %v must be positive", openingCost)
	}
	return &Meyerson{
		OpeningCost: openingCost,
		rng:         stats.NewRNGStream(seed, stats.StreamMeyerson),
		index:       geo.NewDynamicIndex(nil),
	}, nil
}

// Place implements OnlinePlacer.
//
//esharing:hotpath
func (m *Meyerson) Place(dest geo.Point) (Decision, error) {
	if !dest.IsFinite() {
		return Decision{}, &NonFiniteError{Dest: dest}
	}
	nearest, d := m.index.Nearest(dest)
	prob := 1.0
	if nearest >= 0 {
		prob = d / m.OpeningCost
	}
	if prob > 1 {
		prob = 1
	}
	if m.rng.Float64() < prob {
		idx := m.index.Insert(dest)
		return Decision{Station: dest, StationIndex: idx, Opened: true}, nil
	}
	return Decision{Station: m.index.At(nearest), StationIndex: nearest, Walk: d}, nil
}

// Stations implements OnlinePlacer.
func (m *Meyerson) Stations() []geo.Point {
	return m.index.Points()
}

// Name implements OnlinePlacer.
func (m *Meyerson) Name() string { return "meyerson" }

// OnlineKMeans implements the online k-means of Liberty, Sriharsha and
// Sviridenko (ALENEX 2016), the paper's second online baseline. A point at
// squared distance d² from the nearest centre becomes a new centre with
// probability min(d²/f_r, 1); after q_r = O(k) new centres the phase
// advances and the facility cost doubles.
type OnlineKMeans struct {
	TargetK int

	rng      *rand.Rand
	index    *geo.DynamicIndex
	buffer   []geo.Point // first k+1 points used to estimate w*
	facility float64
	phaseNew int
}

var _ OnlinePlacer = (*OnlineKMeans)(nil)

// NewOnlineKMeans builds the placer with the given target cluster count.
func NewOnlineKMeans(targetK int, seed uint64) (*OnlineKMeans, error) {
	if targetK < 1 {
		return nil, fmt.Errorf("core: online k-means target %d < 1", targetK)
	}
	return &OnlineKMeans{
		TargetK: targetK,
		rng:     stats.NewRNGStream(seed, stats.StreamOnlineKMeans),
		index:   geo.NewDynamicIndex(nil),
	}, nil
}

// Place implements OnlinePlacer.
//
//esharing:hotpath
func (o *OnlineKMeans) Place(dest geo.Point) (Decision, error) {
	if !dest.IsFinite() {
		return Decision{}, &NonFiniteError{Dest: dest}
	}
	// Bootstrap: the first k+1 points all become centres and seed f_1
	// from their pairwise distance scale. The median pairwise distance is
	// used instead of the paper's minimum: request streams contain
	// near-coincident destinations (same grid cell), and a near-zero
	// minimum would start f so low that the doubling phases never catch
	// up, opening a centre for almost every request.
	if len(o.buffer) <= o.TargetK {
		o.buffer = append(o.buffer, dest)
		idx := o.index.Insert(dest)
		if len(o.buffer) == o.TargetK+1 {
			w := medianPairwiseDist(o.buffer)
			if w <= 0 || math.IsInf(w, 1) {
				w = 1
			}
			o.facility = w * w / 2 / float64(o.TargetK)
		}
		return Decision{Station: dest, StationIndex: idx, Opened: true}, nil
	}
	nearest, d := o.index.Nearest(dest)
	prob := d * d / o.facility
	if prob > 1 {
		prob = 1
	}
	if o.rng.Float64() < prob {
		idx := o.index.Insert(dest)
		o.phaseNew++
		if o.phaseNew >= 3*o.TargetK {
			o.phaseNew = 0
			o.facility *= 2
		}
		return Decision{Station: dest, StationIndex: idx, Opened: true}, nil
	}
	return Decision{Station: o.index.At(nearest), StationIndex: nearest, Walk: d}, nil
}

// medianPairwiseDist returns the median over all unordered pairwise
// distances in pts (+Inf for fewer than two points).
func medianPairwiseDist(pts []geo.Point) float64 {
	if len(pts) < 2 {
		return math.Inf(1)
	}
	dists := make([]float64, 0, len(pts)*(len(pts)-1)/2)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dists = append(dists, pts[i].Dist(pts[j]))
		}
	}
	sort.Float64s(dists)
	return dists[len(dists)/2]
}

// Stations implements OnlinePlacer.
func (o *OnlineKMeans) Stations() []geo.Point {
	return o.index.Points()
}

// Name implements OnlinePlacer.
func (o *OnlineKMeans) Name() string { return "online-kmeans" }

// RunStream drives any OnlinePlacer over a destination stream and
// accumulates the Eq. 1 cost using openingCost for every opened station —
// the evaluation convention of Figs. 4/6 and Table V (the true
// space-occupation cost is charged per station regardless of the
// algorithm's internal working costs).
func RunStream(p OnlinePlacer, dests []geo.Point, openingCost float64) (Cost, []Decision, error) {
	var cost Cost
	decisions := make([]Decision, 0, len(dests))
	for i, dest := range dests {
		d, err := p.Place(dest)
		if err != nil {
			return Cost{}, nil, fmt.Errorf("request %d: %w", i, err)
		}
		if d.Opened {
			cost.Opening += openingCost
		}
		cost.Walking += d.Walk
		decisions = append(decisions, d)
	}
	return cost, decisions, nil
}

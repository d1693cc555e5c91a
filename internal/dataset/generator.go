package dataset

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
)

// POIKind classifies a point of interest; destination preferences shift
// between kinds by hour and day type, reproducing the weekday/weekend
// structure of Table IV.
type POIKind int

// POI kinds.
const (
	Office POIKind = iota + 1
	Residential
	Subway
	University
	Park
	Recreation
)

// POI is a point of interest with a Gaussian catchment of the given sigma.
type POI struct {
	Name  string
	Kind  POIKind
	Loc   geo.Point
	Sigma float64
}

// Surge injects extra demand at an unexpected location — the paper's
// "concert or sports game" scenario that breaks the historical
// distribution and triggers the KS test.
type Surge struct {
	// Day indexes into the generation window (0-based).
	Day int
	// HourStart..HourEnd (inclusive) bound the surge window.
	HourStart, HourEnd int
	// Center and Sigma shape the surge destination cluster.
	Center geo.Point
	Sigma  float64
	// Trips is the total extra demand.
	Trips int
}

// Config parameterises the synthetic generator.
type Config struct {
	// Origin anchors the planar projection (defaults to Beijing).
	Origin geo.LatLng
	// Box bounds the simulated field (defaults to 3x3 km at the origin,
	// the paper's experimental field).
	Box geo.BBox
	// Start is the first day of generation (defaults to 2017-05-10, the
	// Mobike dataset's first day).
	Start time.Time
	// Days is the number of days (defaults to 14).
	Days int
	// TripsWeekday and TripsWeekend set daily demand (defaults 2000/1400).
	TripsWeekday int
	TripsWeekend int
	// Bikes is the fleet size (defaults to 600).
	Bikes int
	// Seed drives all randomness.
	Seed uint64
	// POIs overrides the default city layout when non-empty.
	POIs []POI
	// Surges lists demand anomalies to inject.
	Surges []Surge
}

// origin is the projection origin: Origin, or Beijing when unset.
func (c *Config) origin() geo.LatLng {
	if c.Origin == (geo.LatLng{}) {
		return geo.LatLng{Lat: 39.9042, Lng: 116.4074} // Beijing
	}
	return c.Origin
}

func (c *Config) applyDefaults() {
	c.Origin = c.origin()
	if c.Box == (geo.BBox{}) {
		c.Box = geo.Square(geo.Pt(0, 0), 3000)
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2017, time.May, 10, 0, 0, 0, 0, time.UTC)
	}
	if c.Days == 0 {
		c.Days = 14
	}
	if c.TripsWeekday == 0 {
		c.TripsWeekday = 2000
	}
	if c.TripsWeekend == 0 {
		c.TripsWeekend = 1400
	}
	if c.Bikes == 0 {
		c.Bikes = 600
	}
	if len(c.POIs) == 0 {
		c.POIs = DefaultPOIs(c.Box)
	}
}

func (c *Config) validate() error {
	switch {
	case c.Days < 0:
		return fmt.Errorf("dataset: days %d < 0", c.Days)
	case c.TripsWeekday < 0 || c.TripsWeekend < 0:
		return fmt.Errorf("dataset: negative daily trips")
	case c.Bikes < 1:
		return fmt.Errorf("dataset: bikes %d < 1", c.Bikes)
	}
	for i, s := range c.Surges {
		if s.Day < 0 || s.Day >= c.Days {
			return fmt.Errorf("dataset: surge %d day %d outside [0,%d)", i, s.Day, c.Days)
		}
		if s.HourStart < 0 || s.HourEnd > 23 || s.HourStart > s.HourEnd {
			return fmt.Errorf("dataset: surge %d hours [%d,%d] invalid", i, s.HourStart, s.HourEnd)
		}
		if s.Trips < 0 {
			return fmt.Errorf("dataset: surge %d trips %d < 0", i, s.Trips)
		}
	}
	return nil
}

// DefaultPOIs lays out a compact city inside box: offices and a subway in
// the centre-north, residential blocks south, a university west, and
// park/recreation east — mirroring the POI mix in Fig. 2.
func DefaultPOIs(box geo.BBox) []POI {
	w, h := box.Width(), box.Height()
	at := func(fx, fy float64) geo.Point {
		return geo.Pt(box.MinX+fx*w, box.MinY+fy*h)
	}
	return []POI{
		{Name: "cbd-north", Kind: Office, Loc: at(0.50, 0.72), Sigma: 0.05 * w},
		{Name: "cbd-east", Kind: Office, Loc: at(0.63, 0.60), Sigma: 0.05 * w},
		{Name: "subway-central", Kind: Subway, Loc: at(0.52, 0.55), Sigma: 0.03 * w},
		{Name: "subway-south", Kind: Subway, Loc: at(0.45, 0.25), Sigma: 0.03 * w},
		{Name: "residential-sw", Kind: Residential, Loc: at(0.25, 0.22), Sigma: 0.07 * w},
		{Name: "residential-se", Kind: Residential, Loc: at(0.68, 0.20), Sigma: 0.07 * w},
		{Name: "university-west", Kind: University, Loc: at(0.15, 0.60), Sigma: 0.05 * w},
		{Name: "park-east", Kind: Park, Loc: at(0.85, 0.70), Sigma: 0.06 * w},
		{Name: "recreation-ne", Kind: Recreation, Loc: at(0.80, 0.88), Sigma: 0.05 * w},
	}
}

// hourlyWeightWeekday peaks at the 8:00 and 18:00 rush hours.
var hourlyWeightWeekday = [24]float64{
	0.2, 0.1, 0.1, 0.1, 0.2, 0.5, 1.5, 3.5, 4.5, 2.5, 1.5, 1.8,
	2.2, 1.8, 1.5, 1.8, 2.5, 4.0, 4.8, 3.0, 2.0, 1.5, 0.8, 0.4,
}

// hourlyWeightWeekend is flatter with a midday bulge.
var hourlyWeightWeekend = [24]float64{
	0.3, 0.2, 0.1, 0.1, 0.1, 0.2, 0.5, 1.0, 1.8, 2.5, 3.2, 3.6,
	3.5, 3.4, 3.2, 3.0, 2.8, 2.6, 2.4, 2.2, 1.8, 1.2, 0.8, 0.5,
}

// destKindWeight returns the preference for arriving at a POI kind given
// day type and hour. Monday and Friday blend in a touch of weekend
// behaviour, reproducing Table IV's observation that they resemble each
// other more than the mid-week days.
func destKindWeight(kind POIKind, weekend bool, transition bool, hour int) float64 {
	var w float64
	if weekend {
		switch kind {
		case Park:
			w = 3.0
		case Recreation:
			w = 3.0
		case Residential:
			w = 1.6
		case Subway:
			w = 0.8
		case Office:
			w = 0.2
		case University:
			w = 0.4
		}
		return w
	}
	morning := hour >= 6 && hour <= 10
	evening := hour >= 16 && hour <= 21
	switch kind {
	case Office:
		w = 1.0
		if morning {
			w = 4.0
		}
		if evening {
			w = 0.4
		}
	case Subway:
		w = 1.5
		if evening {
			w = 3.0
		}
	case Residential:
		w = 1.0
		if evening {
			w = 4.0
		}
		if morning {
			w = 0.4
		}
	case University:
		w = 1.2
	case Park:
		w = 0.3
	case Recreation:
		w = 0.4
	}
	if transition {
		// Blend 20% of the weekend preference into Mon/Fri.
		var wk float64
		switch kind {
		case Park, Recreation:
			wk = 3.0
		case Residential:
			wk = 1.6
		case Subway:
			wk = 0.8
		case Office:
			wk = 0.2
		case University:
			wk = 0.4
		}
		w = 0.8*w + 0.2*wk
	}
	return w
}

// originKindWeight mirrors destKindWeight for trip origins (people leave
// home in the morning, leave work in the evening).
func originKindWeight(kind POIKind, weekend bool, hour int) float64 {
	if weekend {
		switch kind {
		case Residential:
			return 2.5
		case Subway:
			return 1.2
		case Park, Recreation:
			return 1.5
		default:
			return 0.6
		}
	}
	morning := hour >= 6 && hour <= 10
	evening := hour >= 16 && hour <= 21
	switch kind {
	case Residential:
		if morning {
			return 4.0
		}
		if evening {
			return 0.6
		}
		return 1.2
	case Office:
		if evening {
			return 4.0
		}
		if morning {
			return 0.3
		}
		return 1.0
	case Subway:
		return 2.0
	case University:
		return 1.0
	case Park, Recreation:
		return 0.4
	}
	return 0.5
}

// Generate produces a sorted, schema-complete synthetic trip log, its
// geohashes filled by FillGeohashes.
func Generate(cfg Config) ([]Trip, error) {
	var trips []Trip
	err := GenerateStream(cfg, func(_ int, day []Trip) error {
		trips = append(trips, day...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	FillGeohashes(cfg, trips)
	return trips, nil
}

// GenerateStream produces Generate's trips, one day at a time in order,
// so multi-GB fixtures can be written without holding the whole log:
// peak memory is one day of trips. Streamed trips carry no geohash
// strings: StartGeohash and EndGeohash are empty, and every other field
// is Generate's. A caller that writes them as a Mobike CSV calls
// FillGeohashes on each day first; one that needs only the planar
// points allocates nothing per trip. The emitted slice is reused
// between days; copy to retain. Each call owns its scratch, so
// concurrent calls share nothing. Identity with Generate holds because
// days are time-disjoint and (StartTime, OrderID) is a total order, so
// sorting each day independently and concatenating equals the global
// sort.
func GenerateStream(cfg Config, emit func(day int, trips []Trip) error) error {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	rng := stats.NewRNGStream(cfg.Seed, stats.StreamDataset)

	// Fleet state: bikes start scattered uniformly.
	bikePos := make([]geo.Point, cfg.Bikes)
	uniform := stats.UniformDist{Box: cfg.Box}
	for i := range bikePos {
		bikePos[i] = uniform.Sample(rng)
	}

	surgesByDay := map[int][]Surge{}
	for _, s := range cfg.Surges {
		surgesByDay[s.Day] = append(surgesByDay[s.Day], s)
	}

	// One day's trips, reused: presized to the busier day type's mean
	// plus 1/16, which a Poisson day count rarely exceeds (2.8 standard
	// deviations at 2,000 trips); a surge day grows it.
	trips := make([]Trip, 0, max(cfg.TripsWeekday, cfg.TripsWeekend)*17/16)
	// POI weights scratch for samplePOIPoint, overwritten on every draw.
	weights := make([]float64, len(cfg.POIs))
	orderID := int64(1)
	for day := 0; day < cfg.Days; day++ {
		trips = trips[:0]
		date := cfg.Start.AddDate(0, 0, day)
		wd := date.Weekday()
		weekend := wd == time.Saturday || wd == time.Sunday
		transition := wd == time.Monday || wd == time.Friday
		dailyTrips := cfg.TripsWeekday
		profile := hourlyWeightWeekday
		if weekend {
			dailyTrips = cfg.TripsWeekend
			profile = hourlyWeightWeekend
		}
		var profileSum float64
		for _, w := range profile {
			profileSum += w
		}
		for hour := 0; hour < 24; hour++ {
			expected := float64(dailyTrips) * profile[hour] / profileSum
			n := stats.Poisson(rng, expected)
			for i := 0; i < n; i++ {
				t := genTrip(rng, cfg, bikePos, weights, date, hour, weekend, transition, orderID)
				trips = append(trips, t)
				orderID++
			}
		}
		for _, s := range surgesByDay[day] {
			surgeDist := clampedNormal{
				inner: stats.NormalDist{Center: s.Center, StdDev: nonZero(s.Sigma, 80)},
				box:   cfg.Box,
			}
			for i := 0; i < s.Trips; i++ {
				hour := s.HourStart + rng.IntN(s.HourEnd-s.HourStart+1)
				t := genTrip(rng, cfg, bikePos, weights, date, hour, weekend, transition, orderID)
				// Override the destination with the surge cluster.
				t.End = surgeDist.Sample(rng)
				trips = append(trips, t)
				orderID++
			}
		}
		sort.Slice(trips, func(i, j int) bool {
			if !trips[i].StartTime.Equal(trips[j].StartTime) {
				return trips[i].StartTime.Before(trips[j].StartTime)
			}
			return trips[i].OrderID < trips[j].OrderID
		})
		if err := emit(day, trips); err != nil {
			return err
		}
	}
	return nil
}

func genTrip(
	rng *rand.Rand,
	cfg Config,
	bikePos []geo.Point,
	weights []float64,
	date time.Time,
	hour int,
	weekend, transition bool,
	orderID int64,
) Trip {
	start := samplePOIPoint(rng, cfg, weights, true, weekend, transition, hour)
	end := samplePOIPoint(rng, cfg, weights, false, weekend, transition, hour)

	// Assign a bike: pick the best of a small random sample near the
	// start (a cheap nearest-available approximation) and move it.
	bikeID := pickBike(rng, bikePos, start)
	bikePos[bikeID] = end

	ts := date.Add(time.Duration(hour)*time.Hour +
		time.Duration(rng.IntN(3600))*time.Second)
	return Trip{
		OrderID:   orderID,
		UserID:    int64(1 + rng.IntN(100000)),
		BikeID:    int64(bikeID + 1),
		BikeType:  1 + rng.IntN(2),
		StartTime: ts,
		Start:     start,
		End:       end,
	}
}

// samplePOIPoint draws a trip origin or destination: a POI by its kind's
// weight at this hour, then a Gaussian offset from it. weights is
// scratch of len(cfg.POIs), overwritten here.
func samplePOIPoint(rng *rand.Rand, cfg Config, weights []float64, origin, weekend, transition bool, hour int) geo.Point {
	for i, poi := range cfg.POIs {
		if origin {
			weights[i] = originKindWeight(poi.Kind, weekend, hour)
		} else {
			weights[i] = destKindWeight(poi.Kind, weekend, transition, hour)
		}
	}
	idx := stats.WeightedIndex(rng, weights)
	if idx < 0 {
		idx = rng.IntN(len(cfg.POIs))
	}
	poi := cfg.POIs[idx]
	p := geo.Pt(
		poi.Loc.X+poi.Sigma*rng.NormFloat64(),
		poi.Loc.Y+poi.Sigma*rng.NormFloat64(),
	)
	return cfg.Box.Clamp(p)
}

// pickBike samples up to 8 random bikes and returns the index of the one
// closest to start.
func pickBike(rng *rand.Rand, bikePos []geo.Point, start geo.Point) int {
	best := rng.IntN(len(bikePos))
	bestD := start.Dist2(bikePos[best])
	for i := 0; i < 7; i++ {
		cand := rng.IntN(len(bikePos))
		if d := start.Dist2(bikePos[cand]); d < bestD {
			best, bestD = cand, d
		}
	}
	return best
}

// FillGeohashes sets each trip's StartGeohash and EndGeohash to the
// precision-7 geohash of its Start and End, projected about cfg's
// origin as the generator projected them. It is how GenerateStream's
// trips get the geohash fields a Mobike CSV writes, and it writes
// exactly what Generate's trips carry.
func FillGeohashes(cfg Config, trips []Trip) {
	projector := geo.NewProjector(cfg.origin())
	for i := range trips {
		trips[i].StartGeohash = mustGeohash(projector, trips[i].Start)
		trips[i].EndGeohash = mustGeohash(projector, trips[i].End)
	}
}

func mustGeohash(projector *geo.Projector, p geo.Point) string {
	h, err := geo.EncodeGeohash(projector.ToLatLng(p), 7)
	if err != nil {
		// Precision 7 is always valid; projection of in-box points cannot
		// leave the geohash domain.
		panic(fmt.Sprintf("dataset: geohash: %v", err))
	}
	return h
}

func nonZero(v, fallback float64) float64 {
	if v <= 0 {
		return fallback
	}
	return v
}

// clampedNormal wraps a NormalDist with box clamping for surges.
type clampedNormal struct {
	inner stats.NormalDist
	box   geo.BBox
}

func (c clampedNormal) Sample(rng *rand.Rand) geo.Point {
	return c.box.Clamp(c.inner.Sample(rng))
}

// Package dataset models the Mobike trip data the paper evaluates on
// (3.2M trips, Beijing, May 10–24 2017) and provides a deterministic
// synthetic generator with the same schema and the spatial-temporal
// structure the experiments depend on: POI clustering, rush hours and the
// weekday/weekend split validated by Table IV.
package dataset

import (
	"fmt"
	"time"

	"repro/internal/geo"
)

// Trip is one bike trip in the Mobike schema. Locations are carried both
// as geohashes (the raw dataset encoding) and as projected planar points.
type Trip struct {
	OrderID   int64     `json:"orderId"`
	UserID    int64     `json:"userId"`
	BikeID    int64     `json:"bikeId"`
	BikeType  int       `json:"bikeType"`
	StartTime time.Time `json:"startTime"`

	StartGeohash string `json:"startGeohash"`
	EndGeohash   string `json:"endGeohash"`

	Start geo.Point `json:"start"`
	End   geo.Point `json:"end"`
}

// Validate performs basic schema checks.
func (t Trip) Validate() error {
	switch {
	case t.OrderID <= 0:
		return fmt.Errorf("dataset: trip order id %d invalid", t.OrderID)
	case t.StartTime.IsZero():
		return fmt.Errorf("dataset: trip %d has zero start time", t.OrderID)
	case !t.Start.IsFinite() || !t.End.IsFinite():
		return fmt.Errorf("dataset: trip %d has non-finite coordinates", t.OrderID)
	}
	return nil
}

// EndPoints extracts the destination of every trip — the arrival stream
// the PLP algorithms consume.
func EndPoints(trips []Trip) []geo.Point {
	out := make([]geo.Point, len(trips))
	for i, t := range trips {
		out[i] = t.End
	}
	return out
}

// HourlySeries bins trips by start hour into a demand series spanning
// [from, from+hours). Index i counts trips with from+i hrs <= start <
// from+i+1 hrs.
func HourlySeries(trips []Trip, from time.Time, hours int) []float64 {
	out := make([]float64, hours)
	for _, t := range trips {
		dt := t.StartTime.Sub(from)
		if dt < 0 {
			continue
		}
		idx := int(dt / time.Hour)
		if idx >= 0 && idx < hours {
			out[idx]++
		}
	}
	return out
}

// SplitByDay groups trips by calendar day (in t.StartTime's location),
// returning days in chronological order alongside their trips.
func SplitByDay(trips []Trip) (days []time.Time, byDay [][]Trip) {
	index := map[time.Time]int{}
	for _, t := range trips {
		day := time.Date(t.StartTime.Year(), t.StartTime.Month(), t.StartTime.Day(),
			0, 0, 0, 0, t.StartTime.Location())
		i, ok := index[day]
		if !ok {
			i = len(days)
			index[day] = i
			days = append(days, day)
			byDay = append(byDay, nil)
		}
		byDay[i] = append(byDay[i], t)
	}
	// Insertion order equals chronological order when trips are sorted;
	// sort defensively for arbitrary input.
	for i := 1; i < len(days); i++ {
		for j := i; j > 0 && days[j].Before(days[j-1]); j-- {
			days[j], days[j-1] = days[j-1], days[j]
			byDay[j], byDay[j-1] = byDay[j-1], byDay[j]
		}
	}
	return days, byDay
}

package dataset

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
)

// tripsAround builds n trips whose geohashes cluster within ~1km of
// center.
func tripsAround(t *testing.T, center geo.LatLng, n int) []Trip {
	t.Helper()
	trips := make([]Trip, n)
	for i := range trips {
		// ~100m steps; 0.001 deg lat ~= 111m.
		d := 0.001 * float64(i%7)
		start, err := geo.EncodeGeohash(geo.LatLng{Lat: center.Lat + d, Lng: center.Lng - d}, 7)
		if err != nil {
			t.Fatal(err)
		}
		end, err := geo.EncodeGeohash(geo.LatLng{Lat: center.Lat - d, Lng: center.Lng + d}, 7)
		if err != nil {
			t.Fatal(err)
		}
		trips[i] = Trip{
			OrderID: int64(i + 1), UserID: 1, BikeID: 1,
			StartTime:    time.Date(2017, 5, 10, 8, 0, i, 0, time.UTC),
			StartGeohash: start, EndGeohash: end,
		}
	}
	return trips
}

func TestGeohashCenter(t *testing.T) {
	nyc := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
	trips := tripsAround(t, nyc, 20)
	center, err := GeohashCenter(trips)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(center.Lat-nyc.Lat) > 0.05 || math.Abs(center.Lng-nyc.Lng) > 0.05 {
		t.Errorf("center %+v, want near %+v", center, nyc)
	}
}

func TestGeohashCenterErrors(t *testing.T) {
	if _, err := GeohashCenter(nil); !errors.Is(err, ErrNoGeohashes) {
		t.Errorf("empty trips: err = %v, want ErrNoGeohashes", err)
	}
	if _, err := GeohashCenter([]Trip{{OrderID: 1}}); !errors.Is(err, ErrNoGeohashes) {
		t.Errorf("trips without geohashes: err = %v, want ErrNoGeohashes", err)
	}
	bad := []Trip{{OrderID: 1, StartGeohash: "!!!", EndGeohash: "wx4g0ec"}}
	if _, err := GeohashCenter(bad); err == nil {
		t.Error("invalid geohash should error")
	}
}

func TestProjectTrips(t *testing.T) {
	nyc := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
	trips := tripsAround(t, nyc, 10)
	center, err := GeohashCenter(trips)
	if err != nil {
		t.Fatal(err)
	}
	if err := ProjectTrips(trips, geo.NewProjector(center)); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trips {
		for _, p := range [2]geo.Point{tr.Start, tr.End} {
			if !p.IsFinite() || math.Hypot(p.X, p.Y) > 5000 {
				t.Fatalf("trip %d projects to %v, want within 5km of the derived origin", tr.OrderID, p)
			}
		}
	}
	if err := ProjectTrips(trips, nil); err == nil {
		t.Error("nil projector should error")
	}
	bad := []Trip{{OrderID: 9, StartGeohash: "???", EndGeohash: "wx4g0ec"}}
	if err := ProjectTrips(bad, geo.NewProjector(center)); err == nil {
		t.Error("invalid geohash should error")
	}
}

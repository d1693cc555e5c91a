package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
)

func smallConfig(seed uint64) Config {
	return Config{
		Days:         7,
		TripsWeekday: 300,
		TripsWeekend: 200,
		Bikes:        50,
		Seed:         seed,
	}
}

func generateSmall(t *testing.T, seed uint64) []Trip {
	t.Helper()
	trips, err := Generate(smallConfig(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(trips) == 0 {
		t.Fatal("no trips generated")
	}
	return trips
}

func TestGenerateBasics(t *testing.T) {
	trips := generateSmall(t, 1)
	cfg := smallConfig(1)
	cfg.applyDefaults()
	seen := map[int64]bool{}
	for i, tr := range trips {
		if tr.OrderID <= 0 || tr.StartTime.IsZero() || !tr.Start.IsFinite() || !tr.End.IsFinite() {
			t.Fatalf("trip %d invalid: %+v", i, tr)
		}
		if seen[tr.OrderID] {
			t.Fatalf("duplicate order id %d", tr.OrderID)
		}
		seen[tr.OrderID] = true
		if !cfg.Box.Contains(tr.Start) || !cfg.Box.Contains(tr.End) {
			t.Fatalf("trip %d outside box: %v -> %v", i, tr.Start, tr.End)
		}
		if len(tr.StartGeohash) != 7 || len(tr.EndGeohash) != 7 {
			t.Fatalf("trip %d geohash precision wrong: %q %q", i, tr.StartGeohash, tr.EndGeohash)
		}
		if tr.BikeID < 1 || tr.BikeID > int64(cfg.Bikes) {
			t.Fatalf("trip %d bike id %d outside fleet", i, tr.BikeID)
		}
	}
	// Chronological order.
	for i := 1; i < len(trips); i++ {
		if trips[i].StartTime.Before(trips[i-1].StartTime) {
			t.Fatalf("trips not sorted at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateSmall(t, 9)
	b := generateSmall(t, 9)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trip %d differs", i)
		}
	}
	c := generateSmall(t, 10)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].End != c[i].End {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical trips")
		}
	}
}

func TestGenerateDemandLevels(t *testing.T) {
	trips := generateSmall(t, 2)
	days, byDay := SplitByDay(trips)
	if len(days) != 7 {
		t.Fatalf("got %d days, want 7", len(days))
	}
	for i, day := range days {
		wd := day.Weekday()
		n := len(byDay[i])
		if wd == time.Saturday || wd == time.Sunday {
			if n < 120 || n > 300 {
				t.Errorf("%v: %d trips, want ~200", wd, n)
			}
		} else {
			if n < 200 || n > 420 {
				t.Errorf("%v: %d trips, want ~300", wd, n)
			}
		}
	}
}

func TestGenerateRushHourShape(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Days = 5 // May 10 2017 is a Wednesday; 5 days = Wed..Sun
	cfg.TripsWeekday = 2000
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days, byDay := SplitByDay(trips)
	for i, day := range days {
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		rush := tripsInHour(byDay[i], 8) + tripsInHour(byDay[i], 18)
		dead := tripsInHour(byDay[i], 2) + tripsInHour(byDay[i], 3)
		if rush <= 5*dead+10 {
			t.Errorf("day %d: rush %d vs dead %d — no rush-hour structure", i, rush, dead)
		}
	}
}

// tripsInHour counts the trips starting within [hour, hour+1) local time.
func tripsInHour(trips []Trip, hour int) int {
	n := 0
	for _, t := range trips {
		if t.StartTime.Hour() == hour {
			n++
		}
	}
	return n
}

func TestWeekdayWeekendDistributionsDiffer(t *testing.T) {
	// The Table IV premise: weekday destination distributions differ from
	// weekend ones far more than from other weekdays.
	cfg := smallConfig(4)
	cfg.Days = 14
	cfg.TripsWeekday = 700
	cfg.TripsWeekend = 700
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days, byDay := SplitByDay(trips)
	var weekdayPts, weekendPts [][]geo.Point
	for i, day := range days {
		pts := EndPoints(byDay[i])
		wd := day.Weekday()
		if wd == time.Saturday || wd == time.Sunday {
			weekendPts = append(weekendPts, pts)
		} else if wd == time.Tuesday || wd == time.Wednesday || wd == time.Thursday {
			weekdayPts = append(weekdayPts, pts)
		}
	}
	if len(weekdayPts) < 2 || len(weekendPts) < 2 {
		t.Fatalf("not enough day groups: %d weekday, %d weekend", len(weekdayPts), len(weekendPts))
	}
	within, err := stats.Peacock2DFast(weekdayPts[0], weekdayPts[1])
	if err != nil {
		t.Fatal(err)
	}
	cross, err := stats.Peacock2DFast(weekdayPts[0], weekendPts[0])
	if err != nil {
		t.Fatal(err)
	}
	if within >= cross {
		t.Errorf("weekday-weekday D=%v should be < weekday-weekend D=%v", within, cross)
	}
}

func TestGenerateSurge(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Surges = []Surge{{
		Day: 2, HourStart: 19, HourEnd: 21,
		Center: geo.Pt(2800, 2800), Sigma: 50, Trips: 150,
	}}
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count destinations near the surge centre on day 2 evening.
	near := 0
	for _, tr := range trips {
		if tr.StartTime.Day() == 12 && tr.StartTime.Hour() >= 19 && // May 10 + 2
			tr.End.Dist(geo.Pt(2800, 2800)) < 200 {
			near++
		}
	}
	if near < 100 {
		t.Errorf("only %d surge trips near centre, want >= 100", near)
	}
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative days", func(c *Config) { c.Days = -1 }},
		{"negative trips", func(c *Config) { c.TripsWeekday = -5 }},
		{"zero bikes", func(c *Config) { c.Bikes = -2 }},
		{"surge day out of range", func(c *Config) {
			c.Surges = []Surge{{Day: 99, HourStart: 1, HourEnd: 2}}
		}},
		{"surge hours inverted", func(c *Config) {
			c.Surges = []Surge{{Day: 0, HourStart: 5, HourEnd: 2}}
		}},
		{"surge negative trips", func(c *Config) {
			c.Surges = []Surge{{Day: 0, HourStart: 1, HourEnd: 2, Trips: -1}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(1)
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestCSVRoundTrip(t *testing.T) {
	trips := generateSmall(t, 6)[:50]
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trips); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9042, Lng: 116.4074})
	got, err := ReadCSV(&buf, projector)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(trips) {
		t.Fatalf("round trip %d trips, want %d", len(got), len(trips))
	}
	for i := range trips {
		if got[i].OrderID != trips[i].OrderID ||
			got[i].BikeID != trips[i].BikeID ||
			got[i].StartGeohash != trips[i].StartGeohash ||
			got[i].EndGeohash != trips[i].EndGeohash ||
			!got[i].StartTime.Equal(trips[i].StartTime) {
			t.Fatalf("trip %d mismatch: %+v vs %+v", i, got[i], trips[i])
		}
		// Planar positions decode to within a precision-7 geohash cell.
		if got[i].End.Dist(trips[i].End) > 200 {
			t.Fatalf("trip %d end drifted %.1f m", i, got[i].End.Dist(trips[i].End))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name    string
		input   string
		wantHdr bool
	}{
		{"wrong header", "a,b,c,d,e,f,g\n", true},
		{"header extra column", strings.Join(csvHeader, ",") + ",extra\n", true},
		{"header missing column", strings.Join(csvHeader[:6], ",") + "\n", true},
		{"bad orderid", strings.Join(csvHeader, ",") + "\nxx,1,1,1,2017-05-10 00:00:00,wx4g0bm,wx4g0bm\n", false},
		{"bad time", strings.Join(csvHeader, ",") + "\n1,1,1,1,not-a-time,wx4g0bm,wx4g0bm\n", false},
		{"bad geohash", strings.Join(csvHeader, ",") + "\n1,1,1,1,2017-05-10 00:00:00,IIIIIII,wx4g0bm\n", false},
	}
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9, Lng: 116.4})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tt.input), projector)
			if err == nil {
				t.Fatal("want error")
			}
			if tt.wantHdr && !errors.Is(err, ErrBadHeader) {
				t.Errorf("want ErrBadHeader, got %v", err)
			}
		})
	}
}

func TestReadCSVNilProjector(t *testing.T) {
	input := strings.Join(csvHeader, ",") + "\n1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n"
	got, err := ReadCSV(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != (geo.Point{}) {
		t.Errorf("nil projector should leave planar coords zero: %+v", got)
	}
}

func TestHourlySeries(t *testing.T) {
	base := time.Date(2017, 5, 10, 0, 0, 0, 0, time.UTC)
	trips := []Trip{
		{StartTime: base.Add(30 * time.Minute)},
		{StartTime: base.Add(90 * time.Minute)},
		{StartTime: base.Add(91 * time.Minute)},
		{StartTime: base.Add(-time.Hour)},      // before window
		{StartTime: base.Add(100 * time.Hour)}, // after window
	}
	series := HourlySeries(trips, base, 3)
	want := []float64{1, 2, 0}
	for i := range want {
		if series[i] != want[i] {
			t.Errorf("series[%d]=%v, want %v", i, series[i], want[i])
		}
	}
}

func TestSplitByDayOrdering(t *testing.T) {
	base := time.Date(2017, 5, 10, 12, 0, 0, 0, time.UTC)
	trips := []Trip{
		{OrderID: 3, StartTime: base.AddDate(0, 0, 2)},
		{OrderID: 1, StartTime: base},
		{OrderID: 2, StartTime: base.AddDate(0, 0, 1)},
		{OrderID: 4, StartTime: base.AddDate(0, 0, 2).Add(time.Hour)},
	}
	days, byDay := SplitByDay(trips)
	if len(days) != 3 {
		t.Fatalf("got %d days, want 3", len(days))
	}
	for i := 1; i < len(days); i++ {
		if days[i].Before(days[i-1]) {
			t.Fatal("days not sorted")
		}
	}
	if len(byDay[2]) != 2 {
		t.Errorf("last day has %d trips, want 2", len(byDay[2]))
	}
}

func TestEndPoints(t *testing.T) {
	trips := []Trip{
		{Start: geo.Pt(1, 2), End: geo.Pt(3, 4)},
		{Start: geo.Pt(5, 6), End: geo.Pt(7, 8)},
	}
	ends := EndPoints(trips)
	if ends[0] != geo.Pt(3, 4) || ends[1] != geo.Pt(7, 8) {
		t.Error("point extraction wrong")
	}
}

func TestGenerateZeroDays(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Days = -0 // zero => default 14; use explicit negative already covered
	cfg.Days = 1
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) == 0 {
		t.Error("1 day should still generate trips")
	}
}

func TestGenerateWithCustomPOIs(t *testing.T) {
	cfg := smallConfig(31)
	cfg.POIs = []POI{
		{Name: "only-office", Kind: Office, Loc: geo.Pt(500, 500), Sigma: 30},
		{Name: "only-home", Kind: Residential, Loc: geo.Pt(2500, 2500), Sigma: 30},
	}
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every destination must cluster near one of the two POIs.
	for _, tr := range trips {
		dOffice := tr.End.Dist(geo.Pt(500, 500))
		dHome := tr.End.Dist(geo.Pt(2500, 2500))
		if dOffice > 250 && dHome > 250 {
			t.Fatalf("destination %v far from both POIs", tr.End)
		}
	}
}

func TestGenerateBikeReuse(t *testing.T) {
	// Bikes must be reused across trips (the tier-2 energy model depends
	// on per-bike trip chains).
	trips := generateSmall(t, 32)
	perBike := map[int64]int{}
	for _, tr := range trips {
		perBike[tr.BikeID]++
	}
	reused := 0
	for _, n := range perBike {
		if n > 1 {
			reused++
		}
	}
	if reused < len(perBike)/2 {
		t.Errorf("only %d of %d bikes reused", reused, len(perBike))
	}
}

func TestGenerateMorningFlowsTowardOffices(t *testing.T) {
	cfg := smallConfig(33)
	cfg.Days = 5
	cfg.TripsWeekday = 2000
	trips, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := cfg
	cfgD.applyDefaults()
	var officeLocs, homeLocs []geo.Point
	for _, poi := range cfgD.POIs {
		switch poi.Kind {
		case Office:
			officeLocs = append(officeLocs, poi.Loc)
		case Residential:
			homeLocs = append(homeLocs, poi.Loc)
		}
	}
	nearer := func(p geo.Point, a, b []geo.Point) bool {
		_, da := geo.Nearest(p, a)
		_, db := geo.Nearest(p, b)
		return da < db
	}
	officeBound, homeBound := 0, 0
	for _, tr := range trips {
		if wd := tr.StartTime.Weekday(); wd == time.Saturday || wd == time.Sunday ||
			tr.StartTime.Hour() < 7 || tr.StartTime.Hour() > 9 {
			continue
		}
		if nearer(tr.End, officeLocs, homeLocs) {
			officeBound++
		} else {
			homeBound++
		}
	}
	if officeBound <= homeBound {
		t.Errorf("morning rush: %d office-bound vs %d home-bound; commute structure missing",
			officeBound, homeBound)
	}
}

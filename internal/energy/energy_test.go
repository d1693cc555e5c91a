package energy

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

func newTestFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f, err := NewFleet(DefaultModel())
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	for i := 1; i <= n; i++ {
		if err := f.Add(Bike{ID: int64(i), Loc: geo.Pt(float64(i*10), 0), Level: 1}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return f
}

func TestNewFleetValidation(t *testing.T) {
	tests := []struct {
		name  string
		model Model
	}{
		{"zero range", Model{RangeMeters: 0, LowThreshold: 0.2}},
		{"negative range", Model{RangeMeters: -1, LowThreshold: 0.2}},
		{"threshold zero", Model{RangeMeters: 100, LowThreshold: 0}},
		{"threshold one", Model{RangeMeters: 100, LowThreshold: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFleet(tt.model); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestAddValidation(t *testing.T) {
	f := newTestFleet(t, 1)
	tests := []struct {
		name string
		bike Bike
	}{
		{"zero id", Bike{ID: 0, Level: 1}},
		{"negative id", Bike{ID: -1, Level: 1}},
		{"duplicate", Bike{ID: 1, Level: 1}},
		{"level above 1", Bike{ID: 5, Level: 1.5}},
		{"level below 0", Bike{ID: 6, Level: -0.1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := f.Add(tt.bike); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRideDrainsBattery(t *testing.T) {
	f := newTestFleet(t, 1)
	// Default range 35 km; a 3.5 km leg drains 10%.
	if err := f.Ride(1, geo.Pt(10, 3500)); err != nil {
		t.Fatal(err)
	}
	b := f.Bikes()[0]
	if math.Abs(b.Level-0.9) > 1e-9 {
		t.Errorf("level=%v, want 0.9", b.Level)
	}
	if b.Loc != geo.Pt(10, 3500) {
		t.Errorf("loc=%v", b.Loc)
	}
}

func TestRideEmptyBattery(t *testing.T) {
	f, err := NewFleet(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(Bike{ID: 1, Loc: geo.Pt(0, 0), Level: 0.01}); err != nil {
		t.Fatal(err)
	}
	// 0.01 * 35000 = 350 m range; a 1 km leg must fail without change.
	err = f.Ride(1, geo.Pt(1000, 0))
	if !errors.Is(err, ErrBatteryEmpty) {
		t.Fatalf("want ErrBatteryEmpty, got %v", err)
	}
	b := f.Bikes()[0]
	if b.Loc != geo.Pt(0, 0) || b.Level != 0.01 {
		t.Error("failed ride mutated state")
	}
	if f.CanRide(1, geo.Pt(1000, 0)) {
		t.Error("CanRide should be false")
	}
	if !f.CanRide(1, geo.Pt(300, 0)) {
		t.Error("CanRide should be true for short leg")
	}
}

func TestUnknownBike(t *testing.T) {
	f := newTestFleet(t, 1)
	if err := f.Ride(99, geo.Pt(0, 0)); !errors.Is(err, ErrUnknownBike) {
		t.Errorf("Ride: %v", err)
	}
	if err := f.Charge(99); !errors.Is(err, ErrUnknownBike) {
		t.Errorf("Charge: %v", err)
	}
	if f.CanRide(99, geo.Pt(0, 0)) {
		t.Error("CanRide unknown bike should be false")
	}
}

func TestCharge(t *testing.T) {
	f, err := NewFleet(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(Bike{ID: 1, Loc: geo.Pt(0, 0), Level: 0.05}); err != nil {
		t.Fatal(err)
	}
	if err := f.Charge(1); err != nil {
		t.Fatal(err)
	}
	b := f.Bikes()[0]
	if b.Level != 1 {
		t.Errorf("level=%v after charge", b.Level)
	}
}

func TestLowBikes(t *testing.T) {
	f, err := NewFleet(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	levels := []float64{0.1, 0.5, 0.19, 0.2, 0.9}
	for i, lv := range levels {
		if err := f.Add(Bike{ID: int64(i + 1), Level: lv}); err != nil {
			t.Fatal(err)
		}
	}
	low := f.GroupByStation([]geo.Point{geo.Pt(0, 0)}, math.Inf(1), true)[0]
	if len(low) != 2 || low[0] != 1 || low[1] != 3 {
		t.Errorf("low bikes=%v, want [1 3] (0.2 is not low)", low)
	}
}

func TestGroupByStation(t *testing.T) {
	f, err := NewFleet(DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	stations := []geo.Point{geo.Pt(0, 0), geo.Pt(1000, 0)}
	bikes := []Bike{
		{ID: 1, Loc: geo.Pt(10, 0), Level: 0.1},   // low, station 0
		{ID: 2, Loc: geo.Pt(990, 0), Level: 0.1},  // low, station 1
		{ID: 3, Loc: geo.Pt(20, 0), Level: 0.9},   // healthy, station 0
		{ID: 4, Loc: geo.Pt(5000, 0), Level: 0.1}, // low, too far with radius
	}
	for _, b := range bikes {
		if err := f.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	low := f.GroupByStation(stations, 500, true)
	if len(low[0]) != 1 || low[0][0] != 1 {
		t.Errorf("station 0 low=%v, want [1]", low[0])
	}
	if len(low[1]) != 1 || low[1][0] != 2 {
		t.Errorf("station 1 low=%v, want [2]", low[1])
	}
	all := f.GroupByStation(stations, math.Inf(1), false)
	if len(all[0]) != 2 { // bikes 1 and 3
		t.Errorf("station 0 all=%v", all[0])
	}
	if len(all[1]) != 2 { // bikes 2 and 4 (radius unlimited)
		t.Errorf("station 1 all=%v", all[1])
	}
	if got := f.GroupByStation(nil, 100, false); len(got) != 0 {
		t.Error("no stations should give empty grouping")
	}
}

func TestSeedLevels(t *testing.T) {
	f := newTestFleet(t, 1000)
	rng := stats.NewRNG(11)
	if err := f.SeedLevels(rng, 0.15); err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, b := range f.Bikes() {
		if b.Level < 0 || b.Level > 1 {
			t.Fatalf("bike %d level %v out of range", b.ID, b.Level)
		}
		if b.Low(DefaultModel()) {
			low++
		}
	}
	if low < 120 || low > 180 {
		t.Errorf("low bikes=%d, want ~150", low)
	}
	if err := f.SeedLevels(rng, 1.5); err == nil {
		t.Error("fraction > 1 should error")
	}
}

func TestSeedLevelsDeterministic(t *testing.T) {
	run := func() []float64 {
		f := newTestFleet(t, 50)
		if err := f.SeedLevels(stats.NewRNG(3), 0.2); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, b := range f.Bikes() {
			out = append(out, b.Level)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SeedLevels not deterministic")
		}
	}
}

func TestBikesSnapshotIsCopy(t *testing.T) {
	f := newTestFleet(t, 2)
	snap := f.Bikes()
	snap[0].Level = 0
	if f.Bikes()[0].Level != 1 {
		t.Error("Bikes snapshot aliases fleet state")
	}
}

func TestBikeHelpers(t *testing.T) {
	m := DefaultModel()
	b := Bike{ID: 1, Level: 0.1}
	if !b.Low(m) {
		t.Error("0.1 should be low")
	}
	if got := b.RangeLeft(m); math.Abs(got-3500) > 1e-9 {
		t.Errorf("RangeLeft=%v, want 3500", got)
	}
}

package esharing

import (
	"errors"
	"math"
	"testing"

	"repro/internal/energy"
)

// clusteredHistory builds three POI clusters of historical destinations.
func clusteredHistory(seed uint64, perCluster int) []Point {
	centers := []Point{Pt(300, 300), Pt(1500, 400), Pt(900, 1300)}
	// A tiny deterministic LCG keeps the fixture independent of the
	// system's own RNG.
	state := seed*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	var out []Point
	for _, c := range centers {
		for i := 0; i < perCluster; i++ {
			out = append(out, Pt(c.X+(next()-0.5)*240, c.Y+(next()-0.5)*240))
		}
	}
	return out
}

func plannedSystem(t *testing.T) (*System, PlanSummary) {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.PlanOffline(clusteredHistory(1, 60))
	if err != nil {
		t.Fatal(err)
	}
	return sys, plan
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.OpeningCost = 0 },
		func(c *Config) { c.GridCellMeters = -1 },
		func(c *Config) { c.Tolerance = 0 },
		func(c *Config) { c.Beta = 0.5 },
		func(c *Config) { c.TestEvery = -1 },
		func(c *Config) { c.Alpha = 1.5 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRequestBeforePlan(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Request(Pt(0, 0)); !errors.Is(err, ErrNotPlanned) {
		t.Errorf("want ErrNotPlanned, got %v", err)
	}
	if _, err := sys.ChargingRound(); !errors.Is(err, ErrNotPlanned) {
		t.Errorf("charging before plan: %v", err)
	}
	if sys.Stations() != nil {
		t.Error("unplanned system should expose no stations")
	}
	if sys.Similarity() != 100 {
		t.Error("unplanned similarity should be 100")
	}
}

func TestPlanOfflineEmpty(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PlanOffline(nil); !errors.Is(err, ErrNoHistory) {
		t.Errorf("want ErrNoHistory, got %v", err)
	}
}

func TestPlanOfflineFindsClusters(t *testing.T) {
	_, plan := plannedSystem(t)
	if len(plan.Stations) < 2 || len(plan.Stations) > 6 {
		t.Errorf("planned %d stations for 3 clusters, want 2-6", len(plan.Stations))
	}
	if plan.TotalCost() != plan.WalkingCost+plan.OpeningCost {
		t.Error("TotalCost wrong")
	}
	// Each cluster centre should be near some station.
	for _, c := range []Point{Pt(300, 300), Pt(1500, 400), Pt(900, 1300)} {
		best := math.Inf(1)
		for _, s := range plan.Stations {
			if d := c.Dist(s); d < best {
				best = d
			}
		}
		if best > 400 {
			t.Errorf("no station within 400 m of cluster %v (closest %v)", c, best)
		}
	}
}

func TestRequestAssignsNearLandmark(t *testing.T) {
	sys, plan := plannedSystem(t)
	target := plan.Stations[0]
	d, err := sys.Request(target)
	if err != nil {
		t.Fatal(err)
	}
	if d.Opened || d.WalkMeters != 0 {
		t.Errorf("request at a landmark should assign with zero walk: %+v", d)
	}
	if d.Station != target {
		t.Errorf("assigned %v, want %v", d.Station, target)
	}
}

func TestRequestStreamAccumulatesStations(t *testing.T) {
	sys, plan := plannedSystem(t)
	history := clusteredHistory(2, 40)
	for _, p := range history {
		if _, err := sys.Request(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sys.Stations()); got < len(plan.Stations) {
		t.Errorf("stations shrank: %d < %d", got, len(plan.Stations))
	}
	if sys.Similarity() <= 0 || sys.Similarity() > 100 {
		t.Errorf("similarity %v out of range", sys.Similarity())
	}
}

func TestPlanSnapshotIsolation(t *testing.T) {
	sys, plan := plannedSystem(t)
	want := sys.Stations()[0]
	plan.Stations[0] = Pt(-1, -1)
	if got := sys.Stations()[0]; got != want {
		t.Errorf("PlanOffline's summary aliases the placer: station 0 is %v, want %v", got, want)
	}
	sys.Stations()[0] = Pt(-1, -1)
	if got := sys.Stations()[0]; got != want {
		t.Errorf("Stations() exposes internal state: station 0 is %v, want %v", got, want)
	}
}

func TestFleetLifecycle(t *testing.T) {
	sys, plan := plannedSystem(t)
	if err := sys.AddBike(1, plan.Stations[0], 1.0); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddBike(1, plan.Stations[0], 1.0); err == nil {
		t.Error("duplicate bike should error")
	}
	if err := sys.RideBike(1, Pt(plan.Stations[0].X+3000, plan.Stations[0].Y)); err != nil {
		t.Fatal(err)
	}
	bikes := sys.Bikes()
	if len(bikes) != 1 || bikes[0].Level >= 1 {
		t.Errorf("ride should drain battery: %+v", bikes)
	}
	if err := sys.RideBike(99, Pt(0, 0)); err == nil {
		t.Error("unknown bike should error")
	}
}

// lowBikes counts the fleet's bikes below the charging threshold.
func lowBikes(sys *System) int {
	threshold := energy.DefaultModel().LowThreshold
	n := 0
	for _, b := range sys.Bikes() {
		if b.Level < threshold {
			n++
		}
	}
	return n
}

func TestChargingRoundEndToEnd(t *testing.T) {
	sys, plan := plannedSystem(t)
	// Scatter bikes at stations, a third of them low.
	id := int64(1)
	for _, st := range plan.Stations {
		for k := 0; k < 9; k++ {
			level := 0.9
			if k%3 == 0 {
				level = 0.1
			}
			if err := sys.AddBike(id, st, level); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	lowBefore := lowBikes(sys)
	if lowBefore == 0 {
		t.Fatal("fixture has no low bikes")
	}
	rep, err := sys.ChargingRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLowBikes != lowBefore {
		t.Errorf("report low=%d, fleet low=%d", rep.TotalLowBikes, lowBefore)
	}
	if rep.ChargedBikes == 0 {
		t.Error("no bikes charged")
	}
	if got := lowBikes(sys); got != lowBefore-rep.ChargedBikes {
		t.Errorf("fleet low after: %d, want %d", got, lowBefore-rep.ChargedBikes)
	}
	if rep.TotalCost() <= 0 {
		t.Errorf("total cost %v", rep.TotalCost())
	}
}

func TestPointDist(t *testing.T) {
	if Pt(0, 0).Dist(Pt(3, 4)) != 5 {
		t.Error("Dist wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PlanOffline(clusteredHistory(3, 50)); err != nil {
			t.Fatal(err)
		}
		var walk float64
		for _, p := range clusteredHistory(4, 30) {
			d, err := sys.Request(p)
			if err != nil {
				t.Fatal(err)
			}
			walk += d.WalkMeters
		}
		return len(sys.Stations()), walk
	}
	n1, w1 := run()
	n2, w2 := run()
	if n1 != n2 || w1 != w2 {
		t.Errorf("non-deterministic: (%d, %v) vs (%d, %v)", n1, w1, n2, w2)
	}
}

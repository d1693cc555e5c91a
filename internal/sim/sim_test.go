package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/incentive"
	"repro/internal/stats"
)

// chargingFixture builds a grid of stations with a scattered low-battery
// tail.
func chargingFixture(t *testing.T, seed uint64) ([]geo.Point, *energy.Fleet) {
	t.Helper()
	var stations []geo.Point
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			stations = append(stations, geo.Pt(float64(c)*500, float64(r)*500))
		}
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	for i := 1; i <= 300; i++ {
		st := stations[rng.IntN(len(stations))]
		loc := geo.Pt(st.X+rng.Float64()*40-20, st.Y+rng.Float64()*40-20)
		if err := fleet.Add(energy.Bike{ID: int64(i), Loc: loc, Level: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.SeedLevels(rng, 0.2); err != nil {
		t.Fatal(err)
	}
	return stations, fleet
}

func TestChargingConfigValidation(t *testing.T) {
	stations := []geo.Point{geo.Pt(0, 0)}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*ChargingConfig){
		func(c *ChargingConfig) { c.Alpha = -0.1 },
		func(c *ChargingConfig) { c.Alpha = 1.1 },
		func(c *ChargingConfig) { c.WorkBudget = 0 },
		func(c *ChargingConfig) { c.TravelSpeed = 0 },
		func(c *ChargingConfig) { c.ServiceTimePerStop = -time.Second },
		func(c *ChargingConfig) { c.SinkCount = -1 },
		func(c *ChargingConfig) { c.Pickups = -1 },
		func(c *ChargingConfig) { c.WalkMean = -1 },
		func(c *ChargingConfig) { c.Params = incentive.CostParams{ServicePerStop: -1} },
	}
	for i, mutate := range mutations {
		cfg := DefaultChargingConfig(0.4)
		mutate(&cfg)
		if _, err := RunChargingRound(stations, fleet, cfg); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
	if _, err := RunChargingRound(nil, fleet, DefaultChargingConfig(0)); err == nil {
		t.Error("no stations should fail")
	}
	if _, err := RunChargingRound(stations, nil, DefaultChargingConfig(0)); err == nil {
		t.Error("nil fleet should fail")
	}
}

func TestChargingRoundNoLowBikes(t *testing.T) {
	stations := []geo.Point{geo.Pt(0, 0)}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Add(energy.Bike{ID: 1, Level: 0.9}); err != nil {
		t.Fatal(err)
	}
	rep, err := RunChargingRound(stations, fleet, DefaultChargingConfig(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLowBikes != 0 || rep.ChargedPct != 100 || rep.TotalCost() != 0 {
		t.Errorf("clean fleet report: %+v", rep)
	}
}

func TestChargingRoundBaseline(t *testing.T) {
	stations, fleet := chargingFixture(t, 1)
	rep, err := RunChargingRound(stations, fleet, DefaultChargingConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLowBikes < 40 {
		t.Fatalf("fixture has %d low bikes, want ~60", rep.TotalLowBikes)
	}
	if rep.Relocated != 0 || rep.IncentivesPaid != 0 {
		t.Errorf("alpha=0 must not pay incentives: %+v", rep)
	}
	if rep.StationsVisited == 0 || rep.ChargedBikes == 0 {
		t.Errorf("operator did nothing: %+v", rep)
	}
	if rep.ChargedBikes > rep.TotalLowBikes {
		t.Errorf("charged more than existed: %+v", rep)
	}
	wantService := float64(rep.StationsNeedingService) * 5
	if math.Abs(rep.ServiceCost-wantService) > 1e-9 {
		t.Errorf("service cost %v, want %v", rep.ServiceCost, wantService)
	}
	n := float64(rep.StationsNeedingService)
	if math.Abs(rep.DelayCost-(n*n-n)/2*5) > 1e-9 {
		t.Errorf("delay cost %v", rep.DelayCost)
	}
	if math.Abs(rep.EnergyCost-float64(rep.ChargedBikes)*2) > 1e-9 {
		t.Errorf("energy cost %v", rep.EnergyCost)
	}
}

func TestChargingRoundIncentivesAggregateAndSave(t *testing.T) {
	// The Table VI headline: incentives reduce the stations needing
	// service, raise the charged percentage, and cut total cost.
	stationsA, fleetA := chargingFixture(t, 2)
	base, err := RunChargingRound(stationsA, fleetA, DefaultChargingConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	stationsB, fleetB := chargingFixture(t, 2) // identical initial state
	incented, err := RunChargingRound(stationsB, fleetB, DefaultChargingConfig(0.7))
	if err != nil {
		t.Fatal(err)
	}
	if incented.Relocated == 0 {
		t.Fatal("no bikes relocated at alpha=0.7")
	}
	if incented.StationsNeedingService >= base.StationsNeedingService {
		t.Errorf("service stations %d (incented) >= %d (base)",
			incented.StationsNeedingService, base.StationsNeedingService)
	}
	if incented.ChargedPct <= base.ChargedPct {
		t.Errorf("charged %.1f%% (incented) <= %.1f%% (base)",
			incented.ChargedPct, base.ChargedPct)
	}
	if incented.TotalCost() >= base.TotalCost() {
		t.Errorf("total cost %.0f (incented) >= %.0f (base)",
			incented.TotalCost(), base.TotalCost())
	}
}

func TestChargingRoundChargesFleet(t *testing.T) {
	stations, fleet := chargingFixture(t, 3)
	lowBefore := len(fleet.LowBikes())
	rep, err := RunChargingRound(stations, fleet, DefaultChargingConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	lowAfter := len(fleet.LowBikes())
	if lowAfter != lowBefore-rep.ChargedBikes {
		t.Errorf("fleet low count %d -> %d but report charged %d",
			lowBefore, lowAfter, rep.ChargedBikes)
	}
}

func TestChargingRoundBudgetTruncates(t *testing.T) {
	stations, fleet := chargingFixture(t, 4)
	cfg := DefaultChargingConfig(0)
	cfg.WorkBudget = 15 * time.Minute // one stop's service time + slack
	rep, err := RunChargingRound(stations, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StationsVisited > 1 {
		t.Errorf("tiny budget visited %d stations", rep.StationsVisited)
	}
	if rep.ChargedPct > 50 {
		t.Errorf("tiny budget charged %.1f%%", rep.ChargedPct)
	}
}

func TestChargingRoundDeterministic(t *testing.T) {
	run := func() *ChargingReport {
		stations, fleet := chargingFixture(t, 5)
		rep, err := RunChargingRound(stations, fleet, DefaultChargingConfig(0.4))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TotalCost() != b.TotalCost() || a.ChargedBikes != b.ChargedBikes || a.Relocated != b.Relocated {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

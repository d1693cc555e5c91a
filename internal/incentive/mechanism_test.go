package incentive

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/geo"
)

// mechFixture builds a 3-station line: station 0 (source, two low bikes),
// station 1 (sink, one low bike), station 2 (far, empty).
func mechFixture(t *testing.T, cfg MechanismConfig) (*Mechanism, *energy.Fleet) {
	t.Helper()
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	stations := []geo.Point{geo.Pt(0, 0), geo.Pt(400, 0), geo.Pt(5000, 0)}
	bikes := []energy.Bike{
		{ID: 1, Loc: geo.Pt(0, 0), Level: 0.15},
		{ID: 2, Loc: geo.Pt(0, 0), Level: 0.12},
		{ID: 3, Loc: geo.Pt(400, 0), Level: 0.1},
	}
	for _, b := range bikes {
		if err := fleet.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	low := map[int][]int64{0: {1, 2}, 1: {3}}
	m, err := NewMechanism(cfg, stations, fleet, low, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return m, fleet
}

func eagerUser() User { return User{MaxExtraWalk: 1e9, MinReward: 0} }

func TestNewMechanismValidation(t *testing.T) {
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	stations := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 0)}
	valid := DefaultMechanismConfig(0.4)
	tests := []struct {
		name     string
		cfg      MechanismConfig
		stations []geo.Point
		fleet    *energy.Fleet
		low      map[int][]int64
		sinks    []int
	}{
		{"bad alpha", MechanismConfig{Alpha: 2, Params: DefaultCostParams()}, stations, fleet, nil, []int{0}},
		{"negative slack", MechanismConfig{Alpha: 0.4, Params: DefaultCostParams(), MileageSlack: -1}, stations, fleet, nil, []int{0}},
		{"negative skip", MechanismConfig{Alpha: 0.4, Params: DefaultCostParams(), SkipThreshold: -1}, stations, fleet, nil, []int{0}},
		{"bad params", MechanismConfig{Alpha: 0.4, Params: CostParams{ServicePerStop: -1}}, stations, fleet, nil, []int{0}},
		{"no stations", valid, nil, fleet, nil, []int{0}},
		{"nil fleet", valid, stations, nil, nil, []int{0}},
		{"low out of range", valid, stations, fleet, map[int][]int64{7: {1}}, []int{0}},
		{"sink out of range", valid, stations, fleet, nil, []int{9}},
		{"no sinks", valid, stations, fleet, nil, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMechanism(tt.cfg, tt.stations, tt.fleet, tt.low, tt.sinks); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestHandlePickupRelocates(t *testing.T) {
	m, fleet := mechFixture(t, DefaultMechanismConfig(1.0))
	// User departs station 0 toward a destination near the sink.
	offer, made, err := m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(450, 0), Profile: eagerUser()})
	if err != nil {
		t.Fatal(err)
	}
	if !made || !offer.Accepted {
		t.Fatalf("offer should be made and accepted: %+v", offer)
	}
	if offer.Sink != 1 || offer.BikeID != 1 {
		t.Errorf("offer=%+v, want sink 1 bike 1", offer)
	}
	b, err := fleet.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Loc != geo.Pt(400, 0) {
		t.Errorf("bike 1 at %v, want sink location", b.Loc)
	}
	if m.LowRemaining(0) != 1 || m.LowRemaining(1) != 2 {
		t.Errorf("low counts: station0=%d station1=%d", m.LowRemaining(0), m.LowRemaining(1))
	}
	res := m.Result()
	if res.Relocated != 1 || res.OffersMade != 1 || res.IncentivesPaid <= 0 {
		t.Errorf("result %+v", res)
	}
}

func TestHandlePickupDeclined(t *testing.T) {
	m, _ := mechFixture(t, DefaultMechanismConfig(0.4))
	picky := User{MaxExtraWalk: 10, MinReward: 100}
	offer, made, err := m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(450, 0), Profile: picky})
	if err != nil {
		t.Fatal(err)
	}
	// MaxExtraWalk=10 means no sink is within walking range; the search
	// yields nothing, so no offer is extended at all.
	if made || offer.Accepted {
		t.Errorf("offer should not be extended: made=%v %+v", made, offer)
	}
	// A user who can walk but demands a huge reward gets an offer and
	// declines it.
	greedy := User{MaxExtraWalk: 1e9, MinReward: 1e9}
	offer, made, err = m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(450, 0), Profile: greedy})
	if err != nil {
		t.Fatal(err)
	}
	if !made || offer.Accepted {
		t.Errorf("offer should be made and declined: made=%v %+v", made, offer)
	}
	if m.LowRemaining(0) != 2 {
		t.Error("declined offer must not move bikes")
	}
}

func TestHandlePickupNoOfferCases(t *testing.T) {
	m, _ := mechFixture(t, DefaultMechanismConfig(0.4))
	// Pickup at the sink itself: no offer.
	if _, made, err := m.HandlePickup(Pickup{From: 1, Dest: geo.Pt(0, 0), Profile: eagerUser()}); err != nil || made {
		t.Errorf("sink pickup: made=%v err=%v", made, err)
	}
	// Pickup at a station with no low bikes: no offer.
	if _, made, err := m.HandlePickup(Pickup{From: 2, Dest: geo.Pt(0, 0), Profile: eagerUser()}); err != nil || made {
		t.Errorf("empty station: made=%v err=%v", made, err)
	}
	// Out of range station errors.
	if _, _, err := m.HandlePickup(Pickup{From: 9, Dest: geo.Pt(0, 0), Profile: eagerUser()}); err == nil {
		t.Error("out-of-range pickup should error")
	}
}

func TestHandlePickupMileageConstraint(t *testing.T) {
	// Destination much closer than the sink: the detour would exceed the
	// mileage band, so no offer.
	cfg := DefaultMechanismConfig(1.0)
	cfg.MileageSlack = 0
	m, _ := mechFixture(t, cfg)
	_, made, err := m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(50, 0), Profile: eagerUser()})
	if err != nil {
		t.Fatal(err)
	}
	if made {
		t.Error("sink at 400 m with a 50 m trip violates equal mileage; no offer expected")
	}
}

func TestHandlePickupBatteryConstraint(t *testing.T) {
	// A bike with nearly no charge cannot reach the sink.
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	stations := []geo.Point{geo.Pt(0, 0), geo.Pt(3000, 0)}
	if err := fleet.Add(energy.Bike{ID: 1, Loc: geo.Pt(0, 0), Level: 0.01}); err != nil {
		t.Fatal(err) // 350 m range < 3000 m leg
	}
	m, err := NewMechanism(DefaultMechanismConfig(1.0), stations, fleet,
		map[int][]int64{0: {1}}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	_, made, err := m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(3100, 0), Profile: eagerUser()})
	if err != nil {
		t.Fatal(err)
	}
	if made {
		t.Error("dead battery cannot cover the relocation leg; no offer expected")
	}
}

func TestMechanismEmptiesSourceStation(t *testing.T) {
	// Repeated willing users drain all low bikes from station 0
	// (Algorithm 3's loop until L_i -> empty).
	m, _ := mechFixture(t, DefaultMechanismConfig(1.0))
	for i := 0; i < 2; i++ {
		offer, made, err := m.HandlePickup(Pickup{From: 0, Dest: geo.Pt(420, 0), Profile: eagerUser()})
		if err != nil {
			t.Fatal(err)
		}
		if !made || !offer.Accepted {
			t.Fatalf("pickup %d not accepted", i)
		}
	}
	if m.LowRemaining(0) != 0 {
		t.Errorf("station 0 still has %d low bikes", m.LowRemaining(0))
	}
	res := m.Result()
	// Operator now only visits the sink (station 1).
	if len(res.ServiceStations) != 1 || res.ServiceStations[0] != 1 {
		t.Errorf("service stations %v, want [1]", res.ServiceStations)
	}
}

func TestSkipThreshold(t *testing.T) {
	cfg := DefaultMechanismConfig(0.4)
	cfg.SkipThreshold = 2
	m, _ := mechFixture(t, cfg)
	res := m.Result()
	// Station 0 has 2 low bikes (== threshold, skipped), station 1 has 1.
	if len(res.ServiceStations) != 0 {
		t.Errorf("service stations %v, want none at threshold 2", res.ServiceStations)
	}
}

func TestPickSinks(t *testing.T) {
	low := map[int][]int64{
		0: {1, 2, 3},
		1: {4},
		2: {5, 6, 7},
		3: {8, 9},
	}
	got := PickSinks(low, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("PickSinks=%v, want [0 2] (ties by index)", got)
	}
	if got := PickSinks(low, 99); len(got) != 4 {
		t.Errorf("over-count should clamp: %v", got)
	}
	if got := PickSinks(nil, 3); len(got) != 0 {
		t.Errorf("empty low: %v", got)
	}
}

// Package energy models E-bike batteries and fleet energy state. The
// paper's tier-2 optimisation (Section IV) needs per-bike residual energy,
// a low-battery threshold policy (operators refill bikes below ~20%), and
// the characteristic distribution of Fig. 2(d): most bikes healthy with a
// tail of low-energy stragglers.
package energy

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/geo"
)

// Errors returned by Fleet operations.
var (
	// ErrUnknownBike is returned for operations on bike IDs not in the
	// fleet.
	ErrUnknownBike = errors.New("energy: unknown bike")
	// ErrBatteryEmpty is returned when a ride would drain a battery below
	// zero.
	ErrBatteryEmpty = errors.New("energy: battery empty")
)

// Model captures the consumption characteristics of an E-bike.
type Model struct {
	// RangeMeters is the distance a full battery covers (default 35 km,
	// typical for shared E-bikes).
	RangeMeters float64
	// LowThreshold is the charge fraction below which a bike needs
	// service (paper: 20%).
	LowThreshold float64
}

// DefaultModel returns the evaluation settings.
func DefaultModel() Model {
	return Model{RangeMeters: 35000, LowThreshold: 0.2}
}

func (m Model) validate() error {
	if m.RangeMeters <= 0 {
		return fmt.Errorf("energy: range %v must be positive", m.RangeMeters)
	}
	if m.LowThreshold <= 0 || m.LowThreshold >= 1 {
		return fmt.Errorf("energy: low threshold %v outside (0,1)", m.LowThreshold)
	}
	return nil
}

// Bike is one E-bike's live state.
type Bike struct {
	ID    int64     `json:"id"`
	Loc   geo.Point `json:"loc"`
	Level float64   `json:"level"` // charge fraction in [0,1]
}

// Low reports whether the bike needs charging under m.
func (b Bike) Low(m Model) bool { return b.Level < m.LowThreshold }

// RangeLeft returns the remaining ride distance under m.
func (b Bike) RangeLeft(m Model) float64 { return b.Level * m.RangeMeters }

// Fleet tracks every bike's position and charge.
type Fleet struct {
	model Model
	bikes map[int64]*Bike
	order []int64 // stable iteration order
}

// NewFleet validates the model and returns an empty fleet.
func NewFleet(model Model) (*Fleet, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	return &Fleet{model: model, bikes: map[int64]*Bike{}}, nil
}

// Model returns the fleet's energy model.
func (f *Fleet) Model() Model { return f.model }

// Add registers a bike; duplicate IDs are rejected.
func (f *Fleet) Add(b Bike) error {
	if b.ID <= 0 {
		return fmt.Errorf("energy: bike id %d must be positive", b.ID)
	}
	if b.Level < 0 || b.Level > 1 {
		return fmt.Errorf("energy: bike %d level %v outside [0,1]", b.ID, b.Level)
	}
	if _, ok := f.bikes[b.ID]; ok {
		return fmt.Errorf("energy: bike %d already in fleet", b.ID)
	}
	copyB := b
	f.bikes[b.ID] = &copyB
	f.order = append(f.order, b.ID)
	return nil
}

// Ride moves bike id to dest, draining charge proportionally to the
// Euclidean distance. It fails without state change when the battery
// cannot cover the leg.
func (f *Fleet) Ride(id int64, dest geo.Point) error {
	b, ok := f.bikes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBike, id)
	}
	dist := b.Loc.Dist(dest)
	drain := dist / f.model.RangeMeters
	if b.Level < drain {
		return fmt.Errorf("%w: bike %d has %.0f m range, leg needs %.0f m",
			ErrBatteryEmpty, id, b.RangeLeft(f.model), dist)
	}
	b.Level -= drain
	b.Loc = dest
	return nil
}

// CanRide reports whether bike id can cover a leg to dest.
func (f *Fleet) CanRide(id int64, dest geo.Point) bool {
	b, ok := f.bikes[id]
	if !ok {
		return false
	}
	return b.Level >= b.Loc.Dist(dest)/f.model.RangeMeters
}

// Charge restores bike id to full.
func (f *Fleet) Charge(id int64) error {
	b, ok := f.bikes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBike, id)
	}
	b.Level = 1
	return nil
}

// Teleport relocates a bike without energy cost (operator truck moves).
func (f *Fleet) Teleport(id int64, dest geo.Point) error {
	b, ok := f.bikes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownBike, id)
	}
	b.Loc = dest
	return nil
}

// Bikes returns a stable-order snapshot of the fleet.
func (f *Fleet) Bikes() []Bike {
	out := make([]Bike, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, *f.bikes[id])
	}
	return out
}

// LowBikes returns the IDs of bikes below the threshold, in stable order.
func (f *Fleet) LowBikes() []int64 {
	var out []int64
	for _, id := range f.order {
		if f.bikes[id].Low(f.model) {
			out = append(out, id)
		}
	}
	return out
}

// GroupByStation assigns every bike to its nearest station (within radius;
// +Inf accepts all) and returns station index → bike IDs. This builds the
// paper's per-station low-energy sets L_i when filtered with lowOnly.
func (f *Fleet) GroupByStation(stations []geo.Point, radius float64, lowOnly bool) map[int][]int64 {
	out := map[int][]int64{}
	if len(stations) == 0 {
		return out
	}
	for _, id := range f.order {
		b := f.bikes[id]
		if lowOnly && !b.Low(f.model) {
			continue
		}
		idx, d := geo.Nearest(b.Loc, stations)
		if idx < 0 || d > radius {
			continue
		}
		out[idx] = append(out[idx], id)
	}
	return out
}

// SeedLevels assigns initial charge levels with the Fig. 2(d) shape:
// lowTailFrac of the fleet is uniform in (0, threshold), the rest uniform
// in (threshold+0.1, 1). Assignment order is shuffled deterministically by
// rng so low bikes scatter across locations.
func (f *Fleet) SeedLevels(rng *rand.Rand, lowTailFrac float64) error {
	if lowTailFrac < 0 || lowTailFrac > 1 {
		return fmt.Errorf("energy: low tail fraction %v outside [0,1]", lowTailFrac)
	}
	ids := append([]int64(nil), f.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nLow := int(float64(len(ids)) * lowTailFrac)
	for i, id := range ids {
		b := f.bikes[id]
		if i < nLow {
			b.Level = rng.Float64() * f.model.LowThreshold * 0.95
		} else {
			lo := f.model.LowThreshold + 0.1
			b.Level = lo + rng.Float64()*(1-lo)
		}
	}
	return nil
}

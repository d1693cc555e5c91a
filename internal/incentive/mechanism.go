package incentive

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/geo"
)

// MechanismConfig parameterises Algorithm 3.
type MechanismConfig struct {
	// Alpha splits the saving bound between the operator and the users;
	// 0 disables incentives, 1 pays out the entire bound.
	Alpha float64
	// Params are the operator's unit costs.
	Params CostParams
	// MileageSlack relaxes the "identical mileage" constraint: the detour
	// leg i→k may be up to (1+MileageSlack)·dist(i→j). The paper requires
	// equality; a small slack (default 0.15) models the app rounding
	// charges to the same fare band.
	MileageSlack float64
	// SkipThreshold is the remark's clean-up rule: stations left with at
	// most this many low bikes are skipped in the current round and
	// deferred to the next service period (default 0, meaning only empty
	// stations are skipped).
	SkipThreshold int
}

// DefaultMechanismConfig returns the evaluation defaults with the given
// alpha.
func DefaultMechanismConfig(alpha float64) MechanismConfig {
	return MechanismConfig{
		Alpha:        alpha,
		Params:       DefaultCostParams(),
		MileageSlack: 0.15,
	}
}

func (c MechanismConfig) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("incentive: alpha %v outside [0,1]", c.Alpha)
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.MileageSlack < 0 {
		return fmt.Errorf("incentive: mileage slack %v < 0", c.MileageSlack)
	}
	if c.SkipThreshold < 0 {
		return fmt.Errorf("incentive: skip threshold %d < 0", c.SkipThreshold)
	}
	return nil
}

// Pickup is one arriving user who wants to ride from station From to
// destination Dest; Profile models their Eq. 13 acceptance parameters.
type Pickup struct {
	From    int
	Dest    geo.Point
	Profile User
}

// Offer records one incentive transaction.
type Offer struct {
	Station   int     `json:"station"`
	Sink      int     `json:"sink"`
	BikeID    int64   `json:"bikeId"`
	Value     float64 `json:"value"`
	ExtraWalk float64 `json:"extraWalk"`
	Accepted  bool    `json:"accepted"`
}

// Mechanism runs Algorithm 3 over a stream of pickups against live fleet
// state.
type Mechanism struct {
	cfg      MechanismConfig
	stations []geo.Point
	fleet    *energy.Fleet
	low      map[int][]int64 // station index -> low-bike IDs still there
	sinks    map[int]bool    // aggregation sites
	sinkList []int           // sorted sink indices: deterministic scan order
	paid     float64
	offers   []Offer
}

// NewMechanism builds the mechanism.
//
// stations are the established parking locations; low maps station index
// to the IDs of its low-energy bikes (L_i); sinks designates aggregation
// stations (the k locations the paper relocates bikes toward) — typically
// the stations with the largest L_i, which the operator must visit anyway.
func NewMechanism(cfg MechanismConfig, stations []geo.Point, fleet *energy.Fleet, low map[int][]int64, sinks []int) (*Mechanism, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("incentive: no stations")
	}
	if fleet == nil {
		return nil, fmt.Errorf("incentive: nil fleet")
	}
	// Validate in sorted key order so the reported station is the lowest
	// offender, not whichever entry map iteration served first.
	lowKeys := make([]int, 0, len(low))
	for i := range low {
		lowKeys = append(lowKeys, i)
	}
	sort.Ints(lowKeys)
	lowCopy := make(map[int][]int64, len(low))
	for _, i := range lowKeys {
		if i < 0 || i >= len(stations) {
			return nil, fmt.Errorf("incentive: low-bike station %d out of range", i)
		}
		lowCopy[i] = append([]int64(nil), low[i]...)
	}
	sinkSet := make(map[int]bool, len(sinks))
	for _, s := range sinks {
		if s < 0 || s >= len(stations) {
			return nil, fmt.Errorf("incentive: sink %d out of range", s)
		}
		sinkSet[s] = true
	}
	if len(sinkSet) == 0 {
		return nil, fmt.Errorf("incentive: no aggregation sinks")
	}
	sinkList := make([]int, 0, len(sinkSet))
	for s := range sinkSet {
		sinkList = append(sinkList, s)
	}
	sort.Ints(sinkList)
	return &Mechanism{
		cfg:      cfg,
		stations: append([]geo.Point(nil), stations...),
		fleet:    fleet,
		low:      lowCopy,
		sinks:    sinkSet,
		sinkList: sinkList,
	}, nil
}

// PickSinks returns the indices of the `count` stations with the most
// low-energy bikes (ties broken by lower index) — the natural aggregation
// sites, since the operator must stop there regardless.
func PickSinks(low map[int][]int64, count int) []int {
	type entry struct {
		idx, n int
	}
	entries := make([]entry, 0, len(low))
	for i, ids := range low {
		entries = append(entries, entry{idx: i, n: len(ids)})
	}
	// Descending count, ties broken by ascending index — a total order,
	// so the collect-then-sort pair erases map iteration order.
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].n != entries[b].n {
			return entries[a].n > entries[b].n
		}
		return entries[a].idx < entries[b].idx
	})
	if count > len(entries) {
		count = len(entries)
	}
	out := make([]int, 0, count)
	for _, e := range entries[:count] {
		out = append(out, e.idx)
	}
	return out
}

// HandlePickup processes one arriving user per Algorithm 3. When the
// user's origin station still holds low-energy bikes, the system offers
// v = α(q+td)/|L_i| to ride one of them to the best aggregation sink whose
// detour respects the mileage constraint; on acceptance the bike moves and
// the reward is paid. The second return reports whether an offer was even
// extended.
func (m *Mechanism) HandlePickup(p Pickup) (Offer, bool, error) {
	if p.From < 0 || p.From >= len(m.stations) {
		return Offer{}, false, fmt.Errorf("incentive: pickup station %d out of range", p.From)
	}
	if m.sinks[p.From] {
		return Offer{}, false, nil // bikes here are already aggregated
	}
	ids := m.low[p.From]
	if len(ids) == 0 {
		return Offer{}, false, nil
	}
	origin := m.stations[p.From]
	tripLen := origin.Dist(p.Dest)

	// Find the sink whose detour minimises the user's extra walk while
	// respecting the mileage constraint and the bike's residual range.
	// Scan in ascending station order: on a symmetric station layout two
	// sinks can tie exactly on walk distance, and iterating the sink map
	// would break the tie by map order — the lowest index must win every
	// run.
	bikeID := ids[0]
	sink, extraWalk := -1, 0.0
	bestWalk := p.Profile.MaxExtraWalk
	for _, s := range m.sinkList {
		if s == p.From {
			continue
		}
		loc := m.stations[s]
		if origin.Dist(loc) > tripLen*(1+m.cfg.MileageSlack) {
			continue // would incur extra mileage charge
		}
		if !m.fleet.CanRide(bikeID, loc) {
			continue // low battery cannot cover the leg
		}
		if walk := loc.Dist(p.Dest); walk < bestWalk {
			sink, extraWalk = s, walk
			bestWalk = walk
		}
	}
	if sink < 0 {
		return Offer{}, false, nil
	}

	// Stop position t: pessimistically assume the station lands mid-tour.
	stop := (len(m.low) + 1) / 2
	if stop < 1 {
		stop = 1
	}
	value, err := OfferValue(m.cfg.Params, m.cfg.Alpha, stop, len(ids))
	if err != nil {
		return Offer{}, false, err
	}
	offer := Offer{
		Station: p.From, Sink: sink, BikeID: bikeID,
		Value: value, ExtraWalk: extraWalk,
	}
	if !p.Profile.Accepts(extraWalk, value) {
		m.offers = append(m.offers, offer)
		return offer, true, nil
	}
	if err := m.fleet.Ride(bikeID, m.stations[sink]); err != nil {
		// CanRide raced with nothing here (single-threaded), so this is a
		// genuine model inconsistency worth surfacing.
		return Offer{}, false, fmt.Errorf("incentive: relocate bike %d: %w", bikeID, err)
	}
	m.low[p.From] = ids[1:]
	m.low[sink] = append(m.low[sink], bikeID)
	m.paid += value
	offer.Accepted = true
	m.offers = append(m.offers, offer)
	return offer, true, nil
}

// Result summarises a finished mechanism round.
type Result struct {
	// Relocated counts accepted offers.
	Relocated int `json:"relocated"`
	// OffersMade counts extended offers (accepted or not).
	OffersMade int `json:"offersMade"`
	// IncentivesPaid is the total reward outlay in dollars.
	IncentivesPaid float64 `json:"incentivesPaid"`
	// LowByStation is the final L_i distribution.
	LowByStation map[int]int `json:"lowByStation"`
	// ServiceStations lists stations the operator must still visit
	// (low count above the skip threshold).
	ServiceStations []int `json:"serviceStations"`
}

// Result returns the current summary.
func (m *Mechanism) Result() Result {
	res := Result{
		IncentivesPaid: m.paid,
		LowByStation:   make(map[int]int, len(m.low)),
	}
	for _, o := range m.offers {
		res.OffersMade++
		if o.Accepted {
			res.Relocated++
		}
	}
	for i, ids := range m.low {
		if len(ids) > 0 {
			res.LowByStation[i] = len(ids)
		}
		if len(ids) > m.cfg.SkipThreshold {
			res.ServiceStations = append(res.ServiceStations, i)
		}
	}
	// Deterministic order for reports.
	sort.Ints(res.ServiceStations)
	return res
}

// Offers returns the transaction log.
func (m *Mechanism) Offers() []Offer {
	return append([]Offer(nil), m.offers...)
}

// LowRemaining returns the station's outstanding low-bike count.
func (m *Mechanism) LowRemaining(station int) int { return len(m.low[station]) }

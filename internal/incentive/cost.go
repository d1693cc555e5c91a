// Package incentive implements E-Sharing's tier two (Section IV): the
// charging cost model (Eq. 10), the aggregation saving estimate (Eq. 11),
// the per-station saving bound (Eq. 12), the user acceptance model
// (Eq. 13), and the online incentive mechanism (Algorithm 3) that pays
// users to ride low-energy bikes to aggregation sites.
package incentive

import (
	"fmt"
)

// CostParams are the operator's unit costs, in dollars.
type CostParams struct {
	// ServicePerStop is q: fixed cost per station visit (parking tickets,
	// time).
	ServicePerStop float64 `json:"servicePerStop"`
	// DelayUnit is d: the monetised delay added to each later stop in the
	// service sequence.
	DelayUnit float64 `json:"delayUnit"`
	// ChargePerBike is b: cost to refill or replace one battery.
	ChargePerBike float64 `json:"chargePerBike"`
}

// DefaultCostParams mirrors the evaluation: unit delay cost $5 and unit
// energy cost $2 per charge.
func DefaultCostParams() CostParams {
	return CostParams{ServicePerStop: 5, DelayUnit: 5, ChargePerBike: 2}
}

// Validate rejects negative unit costs.
func (p CostParams) Validate() error {
	if p.ServicePerStop < 0 || p.DelayUnit < 0 || p.ChargePerBike < 0 {
		return fmt.Errorf("incentive: negative cost params %+v", p)
	}
	return nil
}

// SavingRatio computes Eq. 11: the fraction of service+delay cost saved by
// reducing the visited stations from n to m (charging cost l·b is paid
// either way):
//
//	(C−C*)/C = 1 − (m·q + (m²−m)·d/2) / (n·q + (n²−n)·d/2)
//
// It errors when m or n is non-positive or m > n.
func SavingRatio(p CostParams, m, n int) (float64, error) {
	if n <= 0 || m <= 0 {
		return 0, fmt.Errorf("incentive: m=%d, n=%d must be positive", m, n)
	}
	if m > n {
		return 0, fmt.Errorf("incentive: m=%d exceeds n=%d", m, n)
	}
	fm, fn := float64(m), float64(n)
	den := fn*p.ServicePerStop + (fn*fn-fn)/2*p.DelayUnit
	// Division guard: only an exactly-zero denominator (both cost
	// parameters zero) is undefined; near-zero values divide fine.
	if den == 0 { //esharing:allow floateq -- exact-zero sentinel; near-zero divides fine
		return 0, nil
	}
	num := fm*p.ServicePerStop + (fm*fm-fm)/2*p.DelayUnit
	return 1 - num/den, nil
}

// StationSavingBound computes Eq. 12: the cost saved when station i (the
// t-th stop, 1-based) is emptied by relocation so the operator skips it:
//
//	Δ_i = (b·|L_i| + q + t·d) − b·|L_i| = q + t·d
func StationSavingBound(p CostParams, stopPosition int) float64 {
	if stopPosition < 1 {
		stopPosition = 1
	}
	return p.ServicePerStop + float64(stopPosition)*p.DelayUnit
}

// OfferValue computes the uniform incentive of Section IV-C:
//
//	v = α·(q + t·d)/|L_i|
//
// splitting an α fraction of the station's saving bound across its
// low-energy bikes. It errors for alpha outside [0,1] or an empty L_i.
func OfferValue(p CostParams, alpha float64, stopPosition, lowBikes int) (float64, error) {
	if alpha < 0 || alpha > 1 {
		return 0, fmt.Errorf("incentive: alpha %v outside [0,1]", alpha)
	}
	if lowBikes < 1 {
		return 0, fmt.Errorf("incentive: station has %d low bikes", lowBikes)
	}
	return alpha * StationSavingBound(p, stopPosition) / float64(lowBikes), nil
}

// User is the acceptance model of Eq. 13: an offer is taken iff the extra
// walking distance stays under MaxExtraWalk (c_u) and the reward reaches
// MinReward (v_u*).
type User struct {
	// MaxExtraWalk is c_u in metres.
	MaxExtraWalk float64 `json:"maxExtraWalk"`
	// MinReward is v_u* in dollars.
	MinReward float64 `json:"minReward"`
}

// Accepts implements Eq. 13.
func (u User) Accepts(extraWalk, offer float64) bool {
	return extraWalk < u.MaxExtraWalk && offer >= u.MinReward
}

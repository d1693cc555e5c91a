package incentive

import (
	"math"
	"testing"
)

func TestSavingRatio(t *testing.T) {
	p := DefaultCostParams() // q=5, d=5
	tests := []struct {
		name    string
		m, n    int
		want    float64
		wantErr bool
	}{
		{"no reduction", 10, 10, 0, false},
		{"m zero", 0, 10, 0, true},
		{"n zero", 1, 0, 0, true},
		{"m exceeds n", 5, 3, 0, true},
		// m=1,n=2: 1 - (5+0)/(10+5) = 1 - 1/3 = 2/3
		{"halve stations", 1, 2, 2.0 / 3.0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := SavingRatio(p, tt.m, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
			if err == nil && math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSavingRatioQuadraticGrowth(t *testing.T) {
	// Fig. 7(a): for fixed n, saving grows (super-linearly) as m shrinks;
	// m/n = 0.65 yields roughly 50% when delay dominates.
	p := CostParams{ServicePerStop: 1, DelayUnit: 10, ChargePerBike: 2}
	n := 40
	prev := -1.0
	for m := n; m >= 1; m-- {
		s, err := SavingRatio(p, m, n)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev {
			t.Fatalf("saving not monotone as m falls: m=%d s=%v prev=%v", m, s, prev)
		}
		prev = s
	}
	mid, err := SavingRatio(p, 26, 40) // m/n = 0.65
	if err != nil {
		t.Fatal(err)
	}
	if mid < 0.4 || mid > 0.7 {
		t.Errorf("m/n=0.65 saving %v, paper reports ~50%%", mid)
	}
}

func TestSavingRatioZeroCosts(t *testing.T) {
	got, err := SavingRatio(CostParams{}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("zero costs should save 0, got %v", got)
	}
}

func TestStationSavingBound(t *testing.T) {
	p := CostParams{ServicePerStop: 5, DelayUnit: 2}
	if got := StationSavingBound(p, 3); got != 11 {
		t.Errorf("got %v, want 11 (q + 3d)", got)
	}
	if got := StationSavingBound(p, 0); got != 7 {
		t.Errorf("stop < 1 should clamp to 1, got %v", got)
	}
}

func TestOfferValue(t *testing.T) {
	p := CostParams{ServicePerStop: 5, DelayUnit: 5}
	got, err := OfferValue(p, 0.4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.4 * 10 / 4; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	if _, err := OfferValue(p, -0.1, 1, 1); err == nil {
		t.Error("negative alpha should error")
	}
	if _, err := OfferValue(p, 1.1, 1, 1); err == nil {
		t.Error("alpha > 1 should error")
	}
	if _, err := OfferValue(p, 0.5, 1, 0); err == nil {
		t.Error("zero low bikes should error")
	}
}

func TestOfferBudgetBalance(t *testing.T) {
	// The total paid to empty a station (|L_i| acceptances at v each)
	// never exceeds the saving bound Δ_i for alpha <= 1.
	p := DefaultCostParams()
	for _, alpha := range []float64{0.2, 0.4, 0.7, 1.0} {
		for _, l := range []int{1, 3, 10} {
			for _, stop := range []int{1, 4, 9} {
				v, err := OfferValue(p, alpha, stop, l)
				if err != nil {
					t.Fatal(err)
				}
				total := v * float64(l)
				bound := StationSavingBound(p, stop)
				if total > bound+1e-9 {
					t.Errorf("alpha=%v l=%d stop=%d: payout %v exceeds bound %v",
						alpha, l, stop, total, bound)
				}
			}
		}
	}
}

func TestUserAccepts(t *testing.T) {
	u := User{MaxExtraWalk: 300, MinReward: 1.5}
	tests := []struct {
		name  string
		walk  float64
		offer float64
		want  bool
	}{
		{"both satisfied", 200, 2, true},
		{"walk too far", 300, 2, false}, // strict inequality on walk
		{"reward too small", 100, 1.49, false},
		{"reward exactly met", 100, 1.5, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := u.Accepts(tt.walk, tt.offer); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCostParamsValidate(t *testing.T) {
	if err := (CostParams{ServicePerStop: -1}).Validate(); err == nil {
		t.Error("negative q should error")
	}
	if err := DefaultCostParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/geo"
)

func TestNewProblemValidation(t *testing.T) {
	valid := []Demand{{Loc: geo.Pt(0, 0), Arrivals: 1}}
	tests := []struct {
		name    string
		demands []Demand
		opening []float64
		wantErr bool
	}{
		{"valid", valid, []float64{5}, false},
		{"empty", nil, nil, true},
		{"length mismatch", valid, []float64{1, 2}, true},
		{"zero arrivals", []Demand{{Loc: geo.Pt(0, 0)}}, []float64{1}, true},
		{"negative arrivals", []Demand{{Loc: geo.Pt(0, 0), Arrivals: -2}}, []float64{1}, true},
		{"nan arrivals", []Demand{{Loc: geo.Pt(0, 0), Arrivals: math.NaN()}}, []float64{1}, true},
		{"inf arrivals", []Demand{{Loc: geo.Pt(0, 0), Arrivals: math.Inf(1)}}, []float64{1}, true},
		{"walk overflow", []Demand{{Loc: geo.Pt(0, 0), Arrivals: 1}, {Loc: geo.Pt(1e200, 0), Arrivals: 1}}, []float64{1, 1}, true},
		{"walk sum overflow", []Demand{{Loc: geo.Pt(0, 0), Arrivals: 1e158}, {Loc: geo.Pt(1e150, 1e150), Arrivals: 1}}, []float64{1, 1}, true},
		{"far but finite", []Demand{{Loc: geo.Pt(-1e100, 0), Arrivals: 1}, {Loc: geo.Pt(1e100, 0), Arrivals: 1e100}}, []float64{1, 1}, false},
		{"non-finite loc", []Demand{{Loc: geo.Pt(math.NaN(), 0), Arrivals: 1}}, []float64{1}, true},
		{"negative opening", valid, []float64{-1}, true},
		{"nan opening", valid, []float64{math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewProblem(tt.demands, tt.opening)
			if (err != nil) != tt.wantErr {
				t.Errorf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestNewProblemCopiesInputs(t *testing.T) {
	demands := []Demand{{Loc: geo.Pt(0, 0), Arrivals: 1}}
	opening := []float64{5}
	p, err := NewProblem(demands, opening)
	if err != nil {
		t.Fatal(err)
	}
	demands[0].Arrivals = 99
	opening[0] = 99
	if p.Demands[0].Arrivals != 1 || p.Opening[0] != 5 {
		t.Error("NewProblem shares caller slices")
	}
}

func TestUniformProblem(t *testing.T) {
	p, err := UniformProblem([]geo.Point{geo.Pt(0, 0), geo.Pt(3, 4)}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Demands[1].Arrivals != 1 || p.Opening[0] != 7 {
		t.Error("UniformProblem fields wrong")
	}
	if got := p.Walk(0, 1); got != 5 {
		t.Errorf("Walk=%v, want 5", got)
	}
	if _, err := UniformProblem(nil, 1); !errors.Is(err, ErrEmptyProblem) {
		t.Errorf("empty: %v", err)
	}
}

func TestWalkScalesWithArrivals(t *testing.T) {
	p, err := NewProblem(
		[]Demand{{Loc: geo.Pt(0, 0), Arrivals: 1}, {Loc: geo.Pt(10, 0), Arrivals: 3}},
		[]float64{1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Walk(0, 1); got != 30 {
		t.Errorf("Walk=%v, want 30 (3 arrivals x 10 m)", got)
	}
	if got := p.Walk(1, 0); got != 10 {
		t.Errorf("Walk=%v, want 10 (1 arrival x 10 m)", got)
	}
}

func TestEvaluate(t *testing.T) {
	p, err := UniformProblem([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(20, 0)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		sol     Solution
		want    Cost
		wantErr bool
	}{
		{
			name: "single station",
			sol:  Solution{Open: []int{0}, Assign: []int{0, 0, 0}},
			want: Cost{Walking: 30, Opening: 100},
		},
		{
			name: "two stations",
			sol:  Solution{Open: []int{0, 2}, Assign: []int{0, 2, 2}},
			want: Cost{Walking: 10, Opening: 200},
		},
		{
			name:    "assignment length mismatch",
			sol:     Solution{Open: []int{0}, Assign: []int{0}},
			wantErr: true,
		},
		{
			name:    "unopened assignment",
			sol:     Solution{Open: []int{0}, Assign: []int{0, 1, 0}},
			wantErr: true,
		},
		{
			name:    "open out of range",
			sol:     Solution{Open: []int{9}, Assign: []int{9, 9, 9}},
			wantErr: true,
		},
		{
			name:    "double open",
			sol:     Solution{Open: []int{0, 0}, Assign: []int{0, 0, 0}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := p.Evaluate(&tt.sol)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if math.Abs(got.Walking-tt.want.Walking) > 1e-9 || math.Abs(got.Opening-tt.want.Opening) > 1e-9 {
				t.Errorf("cost %v, want %v", got, tt.want)
			}
			if math.Abs(got.Total()-(tt.want.Walking+tt.want.Opening)) > 1e-9 {
				t.Errorf("Total=%v", got.Total())
			}
		})
	}
}

func TestReassignNearest(t *testing.T) {
	p, err := UniformProblem([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(100, 0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sol := &Solution{Open: []int{0, 2}, Assign: []int{2, 2, 2}} // deliberately bad
	if err := p.ReassignNearest(sol); err != nil {
		t.Fatal(err)
	}
	if sol.Assign[0] != 0 || sol.Assign[1] != 0 || sol.Assign[2] != 2 {
		t.Errorf("Assign=%v, want [0 0 2]", sol.Assign)
	}
	empty := &Solution{Assign: make([]int, 3)}
	if err := p.ReassignNearest(empty); !errors.Is(err, ErrNoStations) {
		t.Errorf("no stations: %v", err)
	}
}

func TestStations(t *testing.T) {
	p, err := UniformProblem([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 20)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Stations(&Solution{Open: []int{1}})
	if len(got) != 1 || got[0] != geo.Pt(10, 20) {
		t.Errorf("Stations=%v", got)
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Walking: 1, Opening: 2}
	if c.String() == "" {
		t.Error("empty string")
	}
}

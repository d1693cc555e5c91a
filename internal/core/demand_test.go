package core

import (
	"errors"
	"testing"

	"repro/internal/geo"
)

// TestAggregateDemand pins the grid fold case by case: padding of
// degenerate boxes, the max-edge clamp, centroids and row-major order.
// Every point lands in exactly one cell, so the arrivals always sum to
// the point count.
func TestAggregateDemand(t *testing.T) {
	tests := []struct {
		name string
		pts  []geo.Point
		want []Demand
	}{
		{"empty", nil, nil},
		// The zero box is padded to [-100,100]²; the point sits in cell (1,1).
		{"single point", []geo.Point{geo.Pt(0, 0)},
			[]Demand{{Loc: geo.Pt(50, 50), Arrivals: 1}}},
		// Zero width: padded to [-100,100]x[-100,350], 2 cols x 5 rows.
		{"collinear in x", []geo.Point{geo.Pt(0, 250), geo.Pt(0, 0), geo.Pt(0, 0)},
			[]Demand{{Loc: geo.Pt(50, 50), Arrivals: 2}, {Loc: geo.Pt(50, 250), Arrivals: 1}}},
		{"collinear in y", []geo.Point{geo.Pt(250, 0), geo.Pt(0, 0)},
			[]Demand{{Loc: geo.Pt(50, 50), Arrivals: 1}, {Loc: geo.Pt(250, 50), Arrivals: 1}}},
		// A 200 m box is exactly 2x2 cells: the corner (200,200) clamps
		// into cell (1,1) with the centre point.
		{"max edge clamps", []geo.Point{geo.Pt(200, 200), geo.Pt(0, 0), geo.Pt(100, 100)},
			[]Demand{{Loc: geo.Pt(50, 50), Arrivals: 1}, {Loc: geo.Pt(150, 150), Arrivals: 2}}},
		// Input in reverse row-major order comes out row by row, column
		// by column.
		{"row-major order", []geo.Point{geo.Pt(250, 250), geo.Pt(10, 250), geo.Pt(250, 10), geo.Pt(10, 10)},
			[]Demand{
				{Loc: geo.Pt(60, 60), Arrivals: 1}, {Loc: geo.Pt(260, 60), Arrivals: 1},
				{Loc: geo.Pt(60, 260), Arrivals: 1}, {Loc: geo.Pt(260, 260), Arrivals: 1},
			}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := AggregateDemand(tt.pts, 100)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %d demands %+v, want %+v", len(got), got, tt.want)
			}
			sum := 0.0
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("demand %d = %+v, want %+v", i, got[i], tt.want[i])
				}
				sum += got[i].Arrivals
			}
			if sum != float64(len(tt.pts)) {
				t.Fatalf("arrivals sum to %v, want %d", sum, len(tt.pts))
			}
		})
	}
}

// TestAggregateDemandGridCap: a history spanning continents fails fast
// instead of allocating a dense grid sized by its bounding box.
func TestAggregateDemandGridCap(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1e7, 1e6)}
	if _, err := AggregateDemand(pts, 100); !errors.Is(err, geo.ErrGridTooLarge) {
		t.Fatalf("err=%v, want geo.ErrGridTooLarge", err)
	}
	if _, err := HistoryProblem(pts, 100, 1); !errors.Is(err, geo.ErrGridTooLarge) {
		t.Fatalf("HistoryProblem err=%v, want geo.ErrGridTooLarge", err)
	}
}

// TestHistoryProblem: the history instance is the aggregated demand
// with one opening cost everywhere.
func TestHistoryProblem(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(30, 40), geo.Pt(250, 250)}
	p, err := HistoryProblem(pts, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	demands, err := AggregateDemand(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Demands) != len(demands) || len(p.Opening) != len(demands) {
		t.Fatalf("%d demands, %d opening costs, want %d", len(p.Demands), len(p.Opening), len(demands))
	}
	for i := range demands {
		if p.Demands[i] != demands[i] || p.Opening[i] != 7 {
			t.Fatalf("candidate %d = %+v at %v, want %+v at 7", i, p.Demands[i], p.Opening[i], demands[i])
		}
	}
	if _, err := HistoryProblem(nil, 100, 7); !errors.Is(err, ErrEmptyProblem) {
		t.Errorf("empty history: %v", err)
	}
}

package geo

import (
	"errors"
	"math/rand/v2"
	"testing"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := NewGrid(Square(Pt(0, 0), 3000), 100)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	tests := []struct {
		name     string
		box      BBox
		cellSize float64
		wantErr  bool
	}{
		{"valid", Square(Pt(0, 0), 1000), 100, false},
		{"zero cell", Square(Pt(0, 0), 1000), 0, true},
		{"negative cell", Square(Pt(0, 0), 1000), -5, true},
		{"degenerate box", BBox{}, 100, true},
		{"inverted box", BBox{MinX: 10, MaxX: 0, MinY: 0, MaxY: 10}, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewGrid(tt.box, tt.cellSize)
			if (err != nil) != tt.wantErr {
				t.Errorf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

// TestNewGridCellCap: a box needing more than MaxGridCells cells is
// refused before any allocation, including boxes whose column count
// would overflow an int; a box exactly at the cap is still a grid.
func TestNewGridCellCap(t *testing.T) {
	tests := []struct {
		name    string
		box     BBox
		wantErr bool
	}{
		// Two destinations 10,000 × 1,000 km apart: 10^9 cells of 100 m.
		{"continent-wide pair", NewBBox(Pt(0, 0), Pt(1e7, 1e6)), true},
		// 10^300 / 100 columns is far past math.MaxInt.
		{"int overflow", NewBBox(Pt(0, 0), Pt(1e300, 1e300)), true},
		{"overflow in one axis", NewBBox(Pt(0, 0), Pt(1e300, 100)), true},
		{"at the cap", NewBBox(Pt(0, 0), Pt(1<<13*100, 1<<13*100)), false},
		{"one row past the cap", NewBBox(Pt(0, 0), Pt(1<<13*100, (1<<13+1)*100)), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := NewGrid(tt.box, 100)
			if !tt.wantErr {
				if err != nil {
					t.Fatalf("NewGrid: %v", err)
				}
				if g.NumCells() != MaxGridCells {
					t.Fatalf("NumCells=%d, want %d", g.NumCells(), MaxGridCells)
				}
				return
			}
			if !errors.Is(err, ErrGridTooLarge) {
				t.Fatalf("err=%v, want ErrGridTooLarge", err)
			}
		})
	}
}

func TestGridDimensions(t *testing.T) {
	g := testGrid(t)
	if g.Cols() != 30 || g.Rows() != 30 {
		t.Errorf("got %dx%d, want 30x30", g.Cols(), g.Rows())
	}
	if g.NumCells() != 900 {
		t.Errorf("NumCells=%d, want 900", g.NumCells())
	}
}

func TestGridPartialCells(t *testing.T) {
	g, err := NewGrid(NewBBox(Pt(0, 0), Pt(250, 199)), 100)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	if g.Cols() != 3 || g.Rows() != 2 {
		t.Errorf("got %dx%d, want 3x2", g.Cols(), g.Rows())
	}
}

// TestCellOf pins the point-to-cell mapping: points inside the box map
// to their containing cell, and points outside clamp onto the boundary.
func TestCellOf(t *testing.T) {
	g := testGrid(t)
	tests := []struct {
		name string
		p    Point
		want Cell
	}{
		{"origin corner", Pt(0, 0), Cell{0, 0}},
		{"inside first", Pt(99.9, 99.9), Cell{0, 0}},
		{"second col", Pt(100, 0), Cell{1, 0}},
		{"center", Pt(1550, 1550), Cell{15, 15}},
		{"outer edge clamps in", Pt(3000, 3000), Cell{29, 29}},
		{"outside", Pt(-1, 0), Cell{0, 0}},
		{"far outside", Pt(5000, 5000), Cell{29, 29}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.ClampedCellOf(tt.p); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClampedCellOf(t *testing.T) {
	g := testGrid(t)
	tests := []struct {
		name string
		p    Point
		want Cell
	}{
		{"inside unchanged", Pt(150, 250), Cell{1, 2}},
		{"left of box", Pt(-500, 150), Cell{0, 1}},
		{"above box", Pt(150, 9999), Cell{1, 29}},
		{"corner overflow", Pt(1e9, -1e9), Cell{29, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.ClampedCellOf(tt.p); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCentroidInsideOwnCell(t *testing.T) {
	box := Square(Pt(0, 0), 3000)
	g, err := NewGrid(box, 100)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Rows(); r += 7 {
		for c := 0; c < g.Cols(); c += 7 {
			cell := Cell{Col: c, Row: r}
			c := g.Centroid(cell)
			if !box.Contains(c) {
				t.Fatalf("centroid of %v outside grid", cell)
			}
			if got := g.ClampedCellOf(c); got != cell {
				t.Errorf("centroid of %v maps to %v", cell, got)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := testGrid(t)
	for idx := 0; idx < g.NumCells(); idx += 13 {
		cell := Cell{Col: idx % g.Cols(), Row: idx / g.Cols()}
		if back := g.Index(cell); back != idx {
			t.Errorf("Index(%v) = %d, want %d", cell, back, idx)
		}
	}
	if g.Index(Cell{Col: -1, Row: 0}) != -1 || g.Index(Cell{Col: 0, Row: 99}) != -1 {
		t.Error("out-of-range cells should index to -1")
	}
}

func TestCentroids(t *testing.T) {
	g, err := NewGrid(Square(Pt(0, 0), 200), 100)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	want := []Point{Pt(50, 50), Pt(150, 50), Pt(50, 150), Pt(150, 150)}
	for i := range want {
		if got := g.Centroid(Cell{Col: i % g.Cols(), Row: i / g.Cols()}); got != want[i] {
			t.Errorf("centroid[%d]=%v, want %v", i, got, want[i])
		}
	}
}

func TestHistogram(t *testing.T) {
	g, err := NewGrid(Square(Pt(0, 0), 200), 100)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	pts := []Point{Pt(10, 10), Pt(20, 20), Pt(150, 50), Pt(-5, 300), Pt(20, 20)}
	counts := g.Histogram(FoldPoints(pts))
	want := []int{3, 1, 1, 0} // stray point clamps to cell (0,1) = index 2
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d]=%d, want %d", i, counts[i], want[i])
		}
	}
}

func TestHistogramTotalPreserved(t *testing.T) {
	g := testGrid(t)
	rng := rand.New(rand.NewPCG(21, 22))
	pts := make([]Point, 1000)
	for i := range pts {
		// Half inside, half potentially outside.
		pts[i] = Pt(rng.Float64()*6000-1500, rng.Float64()*6000-1500)
	}
	total := 0
	for _, c := range g.Histogram(FoldPoints(pts)) {
		total += c
	}
	if total != len(pts) {
		t.Errorf("histogram total %d, want %d", total, len(pts))
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(Pt(10, 20), Pt(-5, 3))
	if b.MinX != -5 || b.MaxX != 10 || b.MinY != 3 || b.MaxY != 20 {
		t.Errorf("NewBBox normalization wrong: %v", b)
	}
	if b.Width() != 15 || b.Height() != 17 {
		t.Errorf("dims: w=%v h=%v", b.Width(), b.Height())
	}
	if c := b.Center(); c != Pt(2.5, 11.5) {
		t.Errorf("Center=%v", c)
	}
	if !b.Contains(Pt(0, 10)) || b.Contains(Pt(11, 10)) {
		t.Error("Contains wrong")
	}
	if got := b.Clamp(Pt(100, -100)); got != Pt(10, 3) {
		t.Errorf("Clamp=%v", got)
	}
}

func TestBound(t *testing.T) {
	if got := Bound(nil); got != (BBox{}) {
		t.Errorf("Bound(nil)=%v", got)
	}
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	got := Bound(pts)
	want := BBox{MinX: -2, MinY: -1, MaxX: 4, MaxY: 5}
	if got != want {
		t.Errorf("Bound=%v, want %v", got, want)
	}
	for _, p := range pts {
		if !got.Contains(p) {
			t.Errorf("Bound does not contain %v", p)
		}
	}
}

func TestBoundContainsAllProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
		}
		b := Bound(pts)
		for _, p := range pts {
			if !b.Contains(p) {
				t.Fatalf("Bound %v misses %v", b, p)
			}
		}
	}
}

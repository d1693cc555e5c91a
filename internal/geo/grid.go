package geo

import (
	"errors"
	"fmt"
	"math"
)

// ErrGridTooLarge is returned by NewGrid when the box would need more
// than MaxGridCells cells.
var ErrGridTooLarge = errors.New("geo: grid too large")

// MaxGridCells caps a Grid's cell count. Histogram allocates 8 B per
// cell however few points there are, so the cap bounds that dense
// array at 512 MiB. A city at 100 m cells needs well under a million
// cells; two points 10,000 × 1,000 km apart would need 10^9.
const MaxGridCells = 1 << 26

// Cell identifies a grid cell by column (X direction) and row (Y direction).
type Cell struct {
	Col int `json:"col"`
	Row int `json:"row"`
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("cell(%d,%d)", c.Col, c.Row) }

// Grid divides a bounding box into uniform square cells. The paper divides
// the metropolitan area into 100x100 m grids whose centroids are the
// candidate parking locations (Section III-A).
type Grid struct {
	box      BBox
	cellSize float64
	cols     int
	rows     int
}

// NewGrid builds a grid over box with the given cell side in metres. The
// rightmost column and topmost row may be partial; points on the outer edge
// map into the last full index. A grid of more than MaxGridCells cells
// fails with ErrGridTooLarge; the count is taken in float64, so a box too
// wide for an int column count fails the same way.
func NewGrid(box BBox, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size must be positive, got %v", cellSize)
	}
	if box.Width() <= 0 || box.Height() <= 0 {
		return nil, fmt.Errorf("geo: degenerate grid box %v", box)
	}
	cols := max(1, math.Floor(box.Width()/cellSize+0.999999))
	rows := max(1, math.Floor(box.Height()/cellSize+0.999999))
	if cells := cols * rows; !(cells <= MaxGridCells) {
		return nil, fmt.Errorf("%w: %v at %v m cells needs %.4g cells, cap %d",
			ErrGridTooLarge, box, cellSize, cells, MaxGridCells)
	}
	return &Grid{box: box, cellSize: cellSize, cols: int(cols), rows: int(rows)}, nil
}

// Box returns the grid's bounding box.
func (g *Grid) Box() BBox { return g.box }

// Cols returns the number of columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// NumCells returns Cols*Rows.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// ClampedCellOf maps p to the nearest cell, clamping points outside the box
// onto the boundary.
func (g *Grid) ClampedCellOf(p Point) Cell {
	p = g.box.Clamp(p)
	col := int((p.X - g.box.MinX) / g.cellSize)
	row := int((p.Y - g.box.MinY) / g.cellSize)
	if col >= g.cols {
		col = g.cols - 1
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	if col < 0 {
		col = 0
	}
	if row < 0 {
		row = 0
	}
	return Cell{Col: col, Row: row}
}

// Centroid returns the centre point of cell c. Out-of-range cells are
// clamped to the grid.
func (g *Grid) Centroid(c Cell) Point {
	if c.Col < 0 {
		c.Col = 0
	}
	if c.Row < 0 {
		c.Row = 0
	}
	if c.Col >= g.cols {
		c.Col = g.cols - 1
	}
	if c.Row >= g.rows {
		c.Row = g.rows - 1
	}
	return Point{
		X: g.box.MinX + (float64(c.Col)+0.5)*g.cellSize,
		Y: g.box.MinY + (float64(c.Row)+0.5)*g.cellSize,
	}
}

// Index linearises c in row-major order. It returns -1 for out-of-range
// cells.
func (g *Grid) Index(c Cell) int {
	if c.Col < 0 || c.Row < 0 || c.Col >= g.cols || c.Row >= g.rows {
		return -1
	}
	return c.Row*g.cols + c.Col
}

// Histogram counts the occurrences of h per cell (clamping strays onto
// the boundary) and returns counts in row-major order.
func (g *Grid) Histogram(h Multiset) []int {
	counts := make([]int, g.NumCells())
	for i, p := range h.pts {
		counts[g.Index(g.ClampedCellOf(p))] += h.counts[i]
	}
	return counts
}

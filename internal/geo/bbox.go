package geo

import (
	"fmt"
	"math"
)

// BBox is an axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY] in metres.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewBBox returns the box spanning the two corner points in either order.
func NewBBox(a, b Point) BBox {
	return BBox{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// Square returns the square box with the given lower-left corner and side.
func Square(origin Point, side float64) BBox {
	return BBox{MinX: origin.X, MinY: origin.Y, MaxX: origin.X + side, MaxY: origin.Y + side}
}

// Width returns the X extent of the box.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the Y extent of the box.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }

// Center returns the box centroid.
func (b BBox) Center() Point {
	return Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2}
}

// Contains reports whether p lies inside the box (inclusive of edges).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Clamp returns the point in the box closest to p.
func (b BBox) Clamp(p Point) Point {
	return Point{
		X: math.Max(b.MinX, math.Min(b.MaxX, p.X)),
		Y: math.Max(b.MinY, math.Min(b.MaxY, p.Y)),
	}
}

// Extend returns the smallest box containing both b and p. b must be a
// valid box: the zero BBox is the box at the origin, not an empty one,
// so start from a box around a first point, as Bound does.
func (b BBox) Extend(p Point) BBox {
	return BBox{
		MinX: math.Min(b.MinX, p.X),
		MinY: math.Min(b.MinY, p.Y),
		MaxX: math.Max(b.MaxX, p.X),
		MaxY: math.Max(b.MaxY, p.Y),
	}
}

// Bound returns the tightest box containing all pts, or a zero box when pts
// is empty.
func Bound(pts []Point) BBox {
	if len(pts) == 0 {
		return BBox{}
	}
	b := BBox{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	return fmt.Sprintf("[%.1f,%.1f]x[%.1f,%.1f]", b.MinX, b.MaxX, b.MinY, b.MaxY)
}

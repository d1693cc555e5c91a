// Package geo provides the planar geometry primitives used throughout
// E-Sharing: points, Euclidean distances, bounding boxes, uniform grids and
// geohash encoding compatible with the Mobike dataset.
//
// The paper works in a projected Euclidean plane measured in metres; all
// tier-1 costs are expressed as walking distances in that plane. Latitude /
// longitude coordinates from trip records are projected with an
// equirectangular approximation, which is accurate to well under 0.1% over
// the few-kilometre fields the experiments use.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the projected plane, in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// Dist returns the Euclidean distance between p and q in metres. This is the
// paper's walking-distance metric d_ij (Definition 1).
//
// It is sqrt(Dist2(p, q)) — one hardware square root over the same
// squared form every nearest-neighbour comparison uses — rather than
// math.Hypot: coordinates are metres across a city, so the overflow
// protection Hypot buys costs an order of magnitude in the solvers' hot
// loops for no reachable input. Because sqrt is correctly rounded and
// monotone, Dist comparisons agree with Dist2 comparisons up to exact
// rounding ties, which is exactly the property the offline solver's
// radius queries reason from.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.Dist2(q))
}

// Dist2 returns the squared Euclidean distance, useful for nearest-neighbour
// comparisons where the square root is unnecessary.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the distance of p from the origin.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Centroid returns the arithmetic mean of pts. It returns the zero Point for
// an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// Nearest returns the index of the point in pts closest to p and its
// distance. It returns (-1, +Inf) for an empty slice.
func Nearest(p Point, pts []Point) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, q := range pts {
		if d2 := p.Dist2(q); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD2)
}

// LatLng is a geodetic coordinate in degrees.
type LatLng struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// earthRadiusM is the mean Earth radius used by the equirectangular
// projection.
const earthRadiusM = 6_371_000.0

// Projector converts between geodetic coordinates and the local planar frame
// centred at Origin, using an equirectangular approximation.
type Projector struct {
	Origin LatLng
	cosLat float64
}

// NewProjector returns a Projector whose plane is tangent at origin.
func NewProjector(origin LatLng) *Projector {
	return &Projector{
		Origin: origin,
		cosLat: math.Cos(origin.Lat * math.Pi / 180),
	}
}

// ToPlane projects ll into the local frame, in metres east (X) and north (Y)
// of the origin.
func (pr *Projector) ToPlane(ll LatLng) Point {
	const degToRad = math.Pi / 180
	return Point{
		X: (ll.Lng - pr.Origin.Lng) * degToRad * earthRadiusM * pr.cosLat,
		Y: (ll.Lat - pr.Origin.Lat) * degToRad * earthRadiusM,
	}
}

// ToLatLng inverts ToPlane.
func (pr *Projector) ToLatLng(p Point) LatLng {
	const radToDeg = 180 / math.Pi
	return LatLng{
		Lat: pr.Origin.Lat + p.Y/earthRadiusM*radToDeg,
		Lng: pr.Origin.Lng + p.X/(earthRadiusM*pr.cosLat)*radToDeg,
	}
}

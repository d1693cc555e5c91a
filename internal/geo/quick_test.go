package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuickGeohashRoundTrip(t *testing.T) {
	property := func(latRaw, lngRaw uint32, precRaw uint8) bool {
		ll := LatLng{
			Lat: float64(latRaw%170_000)/1000 - 85,
			Lng: float64(lngRaw%360_000)/1000 - 180,
		}
		precision := int(precRaw)%12 + 1
		h, err := EncodeGeohash(ll, precision)
		if err != nil || len(h) != precision {
			return false
		}
		center, latErr, lngErr, err := DecodeGeohash(h)
		if err != nil {
			return false
		}
		return math.Abs(center.Lat-ll.Lat) <= latErr+1e-9 &&
			math.Abs(center.Lng-ll.Lng) <= lngErr+1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickGridCellContainsPoint(t *testing.T) {
	grid, err := NewGrid(Square(Pt(0, 0), 5000), 100)
	if err != nil {
		t.Fatal(err)
	}
	property := func(xRaw, yRaw uint32) bool {
		p := Pt(float64(xRaw%5000), float64(yRaw%5000))
		cell := grid.ClampedCellOf(p)
		// The centroid of the cell must be within half a diagonal.
		c := grid.Centroid(cell)
		if p.Dist(c) > 100*math.Sqrt2/2+1e-9 {
			return false
		}
		// Index round trip.
		idx := grid.Index(cell)
		return idx == cell.Row*grid.Cols()+cell.Col
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickClampInsideBox(t *testing.T) {
	box := NewBBox(Pt(-100, -50), Pt(300, 250))
	property := func(xRaw, yRaw int32) bool {
		p := Pt(float64(xRaw%10000), float64(yRaw%10000))
		c := box.Clamp(p)
		if !box.Contains(c) {
			return false
		}
		// Clamp is idempotent and identity for inside points.
		if box.Contains(p) && c != p {
			return false
		}
		return box.Clamp(c) == c
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectorRoundTrip(t *testing.T) {
	pr := NewProjector(LatLng{Lat: 39.9, Lng: 116.4})
	property := func(xRaw, yRaw int32) bool {
		p := Pt(float64(xRaw%100000)/10, float64(yRaw%100000)/10)
		back := pr.ToPlane(pr.ToLatLng(p))
		return math.Abs(back.X-p.X) < 1e-5 && math.Abs(back.Y-p.Y) < 1e-5
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

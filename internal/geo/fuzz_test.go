package geo

import (
	"testing"
)

// FuzzDecodeGeohash checks that arbitrary input never panics, that both
// entry points decode bit for bit alike (centre, half-extents, and the
// error text naming byte and index), and that valid decodes re-encode
// into a prefix-compatible hash. The seeds include hashes longer than
// EncodeGeohash's 12 characters, valid and with a bad last byte.
func FuzzDecodeGeohash(f *testing.F) {
	for _, seed := range []string{
		"", "wx4g0bm", "ezs42", "0", "zzzzzzzzzzzz", "wx4\xff", "WX4",
		"wx4g0bmzzzzzzzzzzz", "wx4g0bmzzzzzzzzzzzz", "000000000000000000", "zzzzzzzzzzzzzzzzzzz",
		"wx4g0bmzzzzzzzzzza", "wx4g0bmzzzzzzzzzzza",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		c1, lat1, lng1, err1 := DecodeGeohash(h)
		c2, lat2, lng2, err2 := DecodeGeohashBytes([]byte(h))
		if !sameDecode(c1, lat1, lng1, err1, c2, lat2, lng2, err2) {
			t.Fatalf("%q: DecodeGeohash %v ±(%v, %v) err %v; DecodeGeohashBytes %v ±(%v, %v) err %v",
				h, c1, lat1, lng1, err1, c2, lat2, lng2, err2)
		}
		center, latErr, lngErr, err := DecodeGeohash(h)
		if err != nil {
			return
		}
		if latErr < 0 || lngErr < 0 {
			t.Fatalf("negative error bounds for %q", h)
		}
		if center.Lat < -90 || center.Lat > 90 || center.Lng < -180 || center.Lng > 180 {
			t.Fatalf("decode %q out of range: %+v", h, center)
		}
		if len(h) <= 12 {
			back, err := EncodeGeohash(center, len(h))
			if err != nil {
				t.Fatalf("re-encode %q: %v", h, err)
			}
			if back != h {
				t.Fatalf("round trip %q -> %q", h, back)
			}
		}
	})
}

// FuzzGridCellOf checks grid mapping never panics and stays in range.
func FuzzGridCellOf(f *testing.F) {
	grid, err := NewGrid(Square(Pt(0, 0), 3000), 100)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0.0, 0.0)
	f.Add(2999.9, 2999.9)
	f.Add(-1.0, 5000.0)
	f.Fuzz(func(t *testing.T, x, y float64) {
		cell := grid.ClampedCellOf(Pt(x, y))
		if cell.Col < 0 || cell.Col >= grid.Cols() || cell.Row < 0 || cell.Row >= grid.Rows() {
			t.Fatalf("clamped cell out of range: %+v", cell)
		}
		idx := grid.Index(cell)
		if idx < 0 || idx >= grid.NumCells() {
			t.Fatalf("index %d out of range", idx)
		}
	})
}

package geo

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// sameDecode reports whether two decode results agree bit for bit:
// centre, both half-extents, and the error text.
func sameDecode(c1 LatLng, lat1, lng1 float64, err1 error, c2 LatLng, lat2, lng2 float64, err2 error) bool {
	if (err1 == nil) != (err2 == nil) {
		return false
	}
	if err1 != nil {
		return err1.Error() == err2.Error() && errors.Is(err1, ErrInvalidGeohash) == errors.Is(err2, ErrInvalidGeohash)
	}
	return math.Float64bits(c1.Lat) == math.Float64bits(c2.Lat) &&
		math.Float64bits(c1.Lng) == math.Float64bits(c2.Lng) &&
		math.Float64bits(lat1) == math.Float64bits(lat2) &&
		math.Float64bits(lng1) == math.Float64bits(lng2)
}

func TestEncodeGeohashKnownValues(t *testing.T) {
	// Reference values cross-checked against the canonical geohash
	// implementation.
	tests := []struct {
		name      string
		ll        LatLng
		precision int
		want      string
	}{
		{"ezs42 classic", LatLng{Lat: 42.605, Lng: -5.603}, 5, "ezs42"},
		{"beijing 7", LatLng{Lat: 39.9042, Lng: 116.4074}, 7, "wx4g0bm"},
		{"null island", LatLng{Lat: 0, Lng: 0}, 6, "s00000"},
		{"single char", LatLng{Lat: 48.6, Lng: -4.2}, 1, "g"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := EncodeGeohash(tt.ll, tt.precision)
			if err != nil {
				t.Fatalf("EncodeGeohash: %v", err)
			}
			if got != tt.want {
				t.Errorf("got %q, want %q", got, tt.want)
			}
		})
	}
}

func TestEncodeGeohashPrecisionValidation(t *testing.T) {
	for _, p := range []int{0, -1, 13} {
		if _, err := EncodeGeohash(LatLng{}, p); err == nil {
			t.Errorf("precision %d should error", p)
		}
	}
}

func TestDecodeGeohashErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"letter a excluded", "wx4a"},
		{"letter i excluded", "wi4"},
		{"letter l excluded", "wl4"},
		{"letter o excluded", "wo4"},
		{"uppercase", "WX4"},
		{"non ascii", "wx4\xc3\xa9"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, _, err := DecodeGeohash(tt.in); !errors.Is(err, ErrInvalidGeohash) {
				t.Errorf("want ErrInvalidGeohash, got %v", err)
			}
		})
	}
}

func TestGeohashRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for i := 0; i < 300; i++ {
		ll := LatLng{Lat: rng.Float64()*170 - 85, Lng: rng.Float64()*360 - 180}
		precision := 1 + rng.IntN(12)
		h, err := EncodeGeohash(ll, precision)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if len(h) != precision {
			t.Fatalf("len(%q)=%d, want %d", h, len(h), precision)
		}
		center, latErr, lngErr, err := DecodeGeohash(h)
		if err != nil {
			t.Fatalf("decode %q: %v", h, err)
		}
		if math.Abs(center.Lat-ll.Lat) > latErr+1e-12 {
			t.Fatalf("lat error: %v vs center %v (±%v)", ll.Lat, center.Lat, latErr)
		}
		if math.Abs(center.Lng-ll.Lng) > lngErr+1e-12 {
			t.Fatalf("lng error: %v vs center %v (±%v)", ll.Lng, center.Lng, lngErr)
		}
	}
}

func TestGeohashPrefixNesting(t *testing.T) {
	// A longer geohash must lie inside the cell of every prefix.
	ll := LatLng{Lat: 39.985, Lng: 116.318}
	full, err := EncodeGeohash(ll, 9)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for p := 1; p < 9; p++ {
		prefix, err := EncodeGeohash(ll, p)
		if err != nil {
			t.Fatalf("encode precision %d: %v", p, err)
		}
		if full[:p] != prefix {
			t.Errorf("precision %d: %q is not a prefix of %q", p, prefix, full)
		}
	}
}

func TestGeohash7CellSize(t *testing.T) {
	// Precision 7 cells are ~153 m x 153 m at the equator, in line with the
	// dataset's 100x100 m binning claim.
	_, latErr, lngErr, err := DecodeGeohash("wx4g0bm")
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	latM := latErr * 2 * 111_000
	lngM := lngErr * 2 * 111_000 * math.Cos(39.9*math.Pi/180)
	if latM < 100 || latM > 200 {
		t.Errorf("precision-7 lat cell = %.1f m, want 100-200", latM)
	}
	if lngM < 80 || lngM > 200 {
		t.Errorf("precision-7 lng cell = %.1f m, want 80-200", lngM)
	}
}

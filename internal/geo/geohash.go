package geo

import (
	"errors"
	"fmt"
	"strings"
)

// The Mobike dataset geohashes trip start and end locations. This file
// implements standard geohash (base32, interleaved bit) encoding and
// decoding so the dataset codec can round-trip the original schema.

const geohashAlphabet = "0123456789bcdefghjkmnpqrstuvwxyz"

// ErrInvalidGeohash is returned for strings containing characters outside
// the geohash base32 alphabet or with zero length.
var ErrInvalidGeohash = errors.New("geo: invalid geohash")

var geohashIndex = buildGeohashIndex()

func buildGeohashIndex() [256]int8 {
	var idx [256]int8
	for i := range idx {
		idx[i] = -1
	}
	for i := 0; i < len(geohashAlphabet); i++ {
		idx[geohashAlphabet[i]] = int8(i)
	}
	return idx
}

// EncodeGeohash encodes ll into a geohash of the given precision
// (1..12 characters). Precision 7 gives roughly 150x150 m cells, matching
// the dataset's granularity.
func EncodeGeohash(ll LatLng, precision int) (string, error) {
	if precision < 1 || precision > 12 {
		return "", fmt.Errorf("geo: geohash precision %d out of range [1,12]", precision)
	}
	latLo, latHi := -90.0, 90.0
	lngLo, lngHi := -180.0, 180.0
	var sb strings.Builder
	sb.Grow(precision)
	even := true // longitude first
	bit, ch := 0, 0
	for sb.Len() < precision {
		if even {
			mid := (lngLo + lngHi) / 2
			if ll.Lng >= mid {
				ch = ch<<1 | 1
				lngLo = mid
			} else {
				ch <<= 1
				lngHi = mid
			}
		} else {
			mid := (latLo + latHi) / 2
			if ll.Lat >= mid {
				ch = ch<<1 | 1
				latLo = mid
			} else {
				ch <<= 1
				latHi = mid
			}
		}
		even = !even
		bit++
		if bit == 5 {
			sb.WriteByte(geohashAlphabet[ch])
			bit, ch = 0, 0
		}
	}
	return sb.String(), nil
}

// DecodeGeohash decodes h into the centre of its cell along with the cell's
// half-extents in degrees.
func DecodeGeohash(h string) (center LatLng, latErr, lngErr float64, err error) {
	return decodeGeohash(h)
}

// DecodeGeohashBytes is DecodeGeohash over a byte slice. The streaming CSV
// scanner decodes geohash fields in place without materialising a string.
func DecodeGeohashBytes(h []byte) (center LatLng, latErr, lngErr float64, err error) {
	return decodeGeohash(h)
}

// decodeGeohash is the geohash definition as a bisection: each bit
// halves the longitude or latitude interval, longitude first. One
// generic body serves strings and byte slices, so the two entry points
// decode bit for bit alike.
func decodeGeohash[T ~string | ~[]byte](h T) (center LatLng, latErr, lngErr float64, err error) {
	if len(h) == 0 {
		return LatLng{}, 0, 0, ErrInvalidGeohash
	}
	latLo, latHi := -90.0, 90.0
	lngLo, lngHi := -180.0, 180.0
	even := true
	for i := 0; i < len(h); i++ {
		v := geohashIndex[h[i]]
		if v < 0 {
			return LatLng{}, 0, 0, fmt.Errorf("%w: byte %q at %d", ErrInvalidGeohash, h[i], i)
		}
		for b := 4; b >= 0; b-- {
			bit := (v >> uint(b)) & 1
			if even {
				mid := (lngLo + lngHi) / 2
				if bit == 1 {
					lngLo = mid
				} else {
					lngHi = mid
				}
			} else {
				mid := (latLo + latHi) / 2
				if bit == 1 {
					latLo = mid
				} else {
					latHi = mid
				}
			}
			even = !even
		}
	}
	center = LatLng{Lat: (latLo + latHi) / 2, Lng: (lngLo + lngHi) / 2}
	return center, (latHi - latLo) / 2, (lngHi - lngLo) / 2, nil
}

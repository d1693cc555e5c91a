package geo

import (
	"errors"
	"fmt"
	"math"
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
// scanner decodes geohash fields in place without materialising a string;
// both entry points share one generic implementation so the decode is
// bit-identical between them.
func DecodeGeohashBytes(h []byte) (center LatLng, latErr, lngErr float64, err error) {
	return decodeGeohash(h)
}

// maxExactGeohash is the longest geohash the closed-form decode
// reproduces bit for bit. A length-n hash carries ceil(5n/2) longitude
// and floor(5n/2) latitude bits. After m bits of an axis spanning
// 45·2^e degrees (e = 3 for longitude, 2 for latitude) every interval
// endpoint is an integer multiple of 45·2^(e-m), and the sum lo+hi
// behind each midpoint is an odd multiple below 45·2^m in magnitude:
// at most m+6 significand bits. So float64 holds the bisection, and the
// closed form, exactly while m ≤ 47. n = 18 has 45 bits per axis; n = 19
// has 48 longitude bits and diverges (DESIGN.md §14).
const maxExactGeohash = 18

// geohashSplit maps a byte to its base32 value deinterleaved into the
// 3-bit half on value bits 4,2,0 (high three bits of the entry) and the
// 2-bit half on value bits 3,1 (low two bits), or 0xFF for a byte
// outside the alphabet. An even-indexed character starts on a longitude
// bit, so its 3-bit half is longitude; an odd-indexed one starts on a
// latitude bit, so the halves swap.
var geohashSplit = buildGeohashSplit()

func buildGeohashSplit() [256]uint8 {
	var t [256]uint8
	for i := range t {
		t[i] = 0xFF
	}
	for i := 0; i < len(geohashAlphabet); i++ {
		v := uint8(i)
		three := (v>>4&1)<<2 | (v>>2&1)<<1 | v&1
		two := (v>>3&1)<<1 | v>>1&1
		t[geohashAlphabet[i]] = three<<2 | two
	}
	return t
}

// geohashSteps[n] is the longitude and latitude cell size of a length-n
// geohash: 360 and 180 degrees halved once per bit. Both are exact.
var geohashSteps = buildGeohashSteps()

func buildGeohashSteps() [maxExactGeohash + 1][2]float64 {
	var t [maxExactGeohash + 1][2]float64
	for n := range t {
		t[n] = [2]float64{math.Ldexp(360, -(5*n+1)/2), math.Ldexp(180, -5*n/2)}
	}
	return t
}

// decodeGeohash collects the longitude and latitude bit strings of h as
// integers k and places the cell in closed form, lo = -R + k·step. Up to
// maxExactGeohash characters every value involved is a dyadic rational
// float64 holds exactly, so the result equals decodeGeohashReference's
// bisection bit for bit; longer, empty and invalid input take the
// bisection itself, which also words the error.
func decodeGeohash[T ~string | ~[]byte](h T) (center LatLng, latErr, lngErr float64, err error) {
	n := len(h)
	if n == 0 || n > maxExactGeohash {
		return decodeGeohashReference(h)
	}
	var lngK, latK uint64
	i := 0
	for ; i+1 < n; i += 2 {
		a, b := geohashSplit[h[i]], geohashSplit[h[i+1]]
		if a|b == 0xFF {
			return decodeGeohashReference(h)
		}
		// Each pair carries five bits per axis: the even character's
		// three longitude bits then the odd one's two, and the even
		// character's two latitude bits then the odd one's three.
		lngK = lngK<<5 | uint64(a>>2)<<2 | uint64(b&3)
		latK = latK<<5 | uint64(a&3)<<3 | uint64(b>>2)
	}
	if i < n {
		a := geohashSplit[h[i]]
		if a == 0xFF {
			return decodeGeohashReference(h)
		}
		lngK = lngK<<3 | uint64(a>>2)
		latK = latK<<2 | uint64(a&3)
	}
	steps := &geohashSteps[n]
	lngLo := -180 + float64(lngK)*steps[0]
	latLo := -90 + float64(latK)*steps[1]
	center = LatLng{Lat: (latLo + (latLo + steps[1])) / 2, Lng: (lngLo + (lngLo + steps[0])) / 2}
	return center, steps[1] / 2, steps[0] / 2, nil
}

// decodeGeohashReference is the geohash definition as a bisection: each
// bit halves the longitude or latitude interval, longitude first. The
// closed-form decodeGeohash is pinned to it bit for bit by the geo
// tests; production reaches it only past maxExactGeohash and on empty
// or invalid input.
func decodeGeohashReference[T ~string | ~[]byte](h T) (center LatLng, latErr, lngErr float64, err error) {
	if len(h) == 0 {
		return LatLng{}, 0, 0, ErrInvalidGeohash
	}
	latLo, latHi := -90.0, 90.0
	lngLo, lngHi := -180.0, 180.0
	even := true
	for i := 0; i < len(h); i++ {
		c := h[i]
		v := int8(-1)
		if c < 128 {
			v = geohashIndex[c]
		}
		if v < 0 {
			return LatLng{}, 0, 0, fmt.Errorf("%w: byte %q at %d", ErrInvalidGeohash, c, i)
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

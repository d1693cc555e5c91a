package geo

// Planar shard keys for geo-sharded serving. The server partitions its
// placement state by city region: every destination maps to a quadtree
// cell of a fixed planar world box, and cells map to shards. The cell
// subdivision is exactly the geohash bisection (longitude-first
// interleaved bits, ties to the upper half), run over pseudo-coordinates
// scaled from the planar frame, so the key has the same
// prefix-containment property as a geohash: two points share a
// precision-p key iff they share the same p-character cell.
//
// The mapping is pure arithmetic on the input point — no state, no
// wall-clock, no randomness — so routing is deterministic, including
// for destinations exactly on a cell boundary (the >= comparison always
// sends the boundary to the upper half, like EncodeGeohash).

// PlanarWorldExtent is the half-width in metres of the fixed world box
// the planar quadtree subdivides. Half the Earth's circumference plus
// slack: any tangent-plane projection of real coordinates lands inside
// it, and points beyond clamp to the border cells.
const PlanarWorldExtent = 25_000_000.0

// DefaultShardPrecision gives ~49 km cells in the planar frame: a cell
// per city for multi-city fleets. Use 6–7 (~3 km / ~760 m) to shard
// within a single city.
const DefaultShardPrecision = 4

// clampShardPrecision bounds precision to the geohash range [1, 12].
func clampShardPrecision(precision int) int {
	if precision < 1 {
		return 1
	}
	if precision > 12 {
		return 12
	}
	return precision
}

// PlanarCellID returns p's quadtree cell at the given precision (1..12;
// out-of-range values clamp) as a 5·precision-bit integer. The bits are
// exactly the geohash bits of the pseudo-coordinates. Allocation-free:
// this runs on the placement hot path for every routed request.
//
//esharing:hotpath
func PlanarCellID(p Point, precision int) uint64 {
	precision = clampShardPrecision(precision)
	// Scale the planar frame onto the geohash lat/lng domain. Values
	// beyond the world box clamp to the border; NaN fails every >=
	// comparison below and lands deterministically in the all-zero cell.
	lng := p.X / PlanarWorldExtent * 180
	lat := p.Y / PlanarWorldExtent * 90
	if lng > 180 {
		lng = 180
	} else if lng < -180 {
		lng = -180
	}
	if lat > 90 {
		lat = 90
	} else if lat < -90 {
		lat = -90
	}
	latLo, latHi := -90.0, 90.0
	lngLo, lngHi := -180.0, 180.0
	var id uint64
	even := true // longitude first, as in EncodeGeohash
	for bit := 0; bit < precision*5; bit++ {
		id <<= 1
		if even {
			mid := (lngLo + lngHi) / 2
			if lng >= mid {
				id |= 1
				lngLo = mid
			} else {
				lngHi = mid
			}
		} else {
			mid := (latLo + latHi) / 2
			if lat >= mid {
				id |= 1
				latLo = mid
			} else {
				latHi = mid
			}
		}
		even = !even
	}
	return id
}

// FNV-1a 64-bit parameters (hash/fnv's constants, inlined so the hot
// path hashes eight bytes without an allocation or interface call).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ShardOf maps p to a shard index in [0, shards): the FNV-1a hash of
// its planar cell, mod shards. Every point in a cell routes to the same
// shard, and distinct cells (distinct cities, or distinct neighbourhoods
// at higher precisions) spread across shards by hash. shards <= 1
// always returns 0.
//
//esharing:hotpath
func ShardOf(p Point, precision, shards int) int {
	if shards <= 1 {
		return 0
	}
	id := PlanarCellID(p, precision)
	h := uint64(fnvOffset64)
	for i := 56; i >= 0; i -= 8 {
		h ^= (id >> uint(i)) & 0xff
		h *= fnvPrime64
	}
	return int(h % uint64(shards))
}

package geo

import (
	"math"
	"testing"
)

// pseudoLatLng mirrors PlanarCellID's scaling of the planar frame onto
// the geohash domain, so the key can be cross-checked against the
// canonical geohash codec.
func pseudoLatLng(p Point) LatLng {
	clamp := func(v, lim float64) float64 {
		if v > lim {
			return lim
		}
		if v < -lim {
			return -lim
		}
		return v
	}
	return LatLng{
		Lat: clamp(p.Y/PlanarWorldExtent*90, 90),
		Lng: clamp(p.X/PlanarWorldExtent*180, 180),
	}
}

// planarShardKey renders PlanarCellID in the geohash base32 alphabet.
func planarShardKey(p Point, precision int) string {
	id := PlanarCellID(p, precision)
	buf := make([]byte, precision)
	for i := precision - 1; i >= 0; i-- {
		buf[i] = geohashAlphabet[id&31]
		id >>= 5
	}
	return string(buf)
}

// TestPlanarShardKeyMatchesGeohash pins the cell subdivision to the
// geohash codec exactly: the planar cell of any point, rendered in
// base32, must equal the geohash of its pseudo-coordinates at every
// precision.
func TestPlanarShardKeyMatchesGeohash(t *testing.T) {
	points := []Point{
		Pt(0, 0), Pt(1, 1), Pt(-1, -1),
		Pt(1000, 2000), Pt(-123456.78, 987654.32),
		Pt(PlanarWorldExtent, PlanarWorldExtent),
		Pt(-PlanarWorldExtent, -PlanarWorldExtent),
		Pt(3e7, -3e7), // beyond the world box: clamps to the border
		Pt(17, -0.25), Pt(2.5e6, -9.9e6),
	}
	for _, p := range points {
		for precision := 1; precision <= 12; precision++ {
			want, err := EncodeGeohash(pseudoLatLng(p), precision)
			if err != nil {
				t.Fatalf("EncodeGeohash(%v, %d): %v", p, precision, err)
			}
			if got := planarShardKey(p, precision); got != want {
				t.Errorf("planar key of %v at %d = %q, want geohash %q", p, precision, got, want)
			}
		}
	}
}

// TestPlanarCellIDBoundaryDeterministic: a destination exactly on a
// cell boundary must land in one well-defined cell (the upper half,
// like the geohash codec), identically on every evaluation, and
// distinctly from a point just below the boundary.
func TestPlanarCellIDBoundaryDeterministic(t *testing.T) {
	boundaries := []Point{
		Pt(0, 0),                        // world centre: boundary at every bisection level
		Pt(PlanarWorldExtent/2, 0),      // lng three-quarter line
		Pt(0, -PlanarWorldExtent/2),     // lat quarter line
		Pt(PlanarWorldExtent/4, 1234.5), // deeper lng boundary
	}
	for _, p := range boundaries {
		for precision := 1; precision <= 12; precision++ {
			a := PlanarCellID(p, precision)
			for i := 0; i < 8; i++ {
				if b := PlanarCellID(p, precision); b != a {
					t.Fatalf("PlanarCellID(%v, %d) unstable: %#x then %#x", p, precision, a, b)
				}
			}
		}
	}
	// The exact boundary belongs to the upper cell: x = 0 sits with the
	// eastern half (first longitude bit 1), and the tiniest step west
	// flips that bit.
	if id := PlanarCellID(Pt(0, 0), 1); id&(1<<4) == 0 {
		t.Errorf("boundary point should take the upper cell, got %#05b", id)
	}
	east, west := PlanarCellID(Pt(0, 0), 1), PlanarCellID(Pt(-0.001, 0), 1)
	if east == west {
		t.Errorf("points astride the boundary share cell %#x", east)
	}
}

// TestPlanarCellIDClampsAndNaN: precision clamps to [1, 12], points
// beyond the world box clamp to the border cells, and NaN coordinates
// map deterministically (to the all-zero cell) rather than poisoning
// the route.
func TestPlanarCellIDClampsAndNaN(t *testing.T) {
	p := Pt(123456, -654321)
	if got, want := PlanarCellID(p, 0), PlanarCellID(p, 1); got != want {
		t.Errorf("precision 0 = %#x, want precision-1 value %#x", got, want)
	}
	if got, want := PlanarCellID(p, 99), PlanarCellID(p, 12); got != want {
		t.Errorf("precision 99 = %#x, want precision-12 value %#x", got, want)
	}
	if got, want := PlanarCellID(Pt(1e18, -1e18), 6), PlanarCellID(Pt(PlanarWorldExtent, -PlanarWorldExtent), 6); got != want {
		t.Errorf("far point cell %#x, want border cell %#x", got, want)
	}
	nan := math.NaN()
	if got := PlanarCellID(Pt(nan, nan), 6); got != 0 {
		t.Errorf("NaN cell = %#x, want 0", got)
	}
	if got := ShardOf(Pt(nan, 5), 6, 7); got < 0 || got >= 7 {
		t.Errorf("NaN shard = %d, out of range", got)
	}
}

// TestShardOf: indices stay in range for any shard count, shards <= 1
// is always 0, the mapping is stable, and every point of one cell
// routes to the same shard.
func TestShardOf(t *testing.T) {
	points := []Point{Pt(0, 0), Pt(1500, 900), Pt(-2e6, 3e5), Pt(42, -42)}
	for _, p := range points {
		if got := ShardOf(p, 4, 0); got != 0 {
			t.Errorf("ShardOf(%v, shards=0) = %d, want 0", p, got)
		}
		if got := ShardOf(p, 4, 1); got != 0 {
			t.Errorf("ShardOf(%v, shards=1) = %d, want 0", p, got)
		}
		for _, shards := range []int{2, 3, 4, 8, 13} {
			got := ShardOf(p, 4, shards)
			if got < 0 || got >= shards {
				t.Errorf("ShardOf(%v, %d) = %d, out of range", p, shards, got)
			}
			if again := ShardOf(p, 4, shards); again != got {
				t.Errorf("ShardOf(%v, %d) unstable: %d then %d", p, shards, got, again)
			}
		}
	}
	// Two points in the same precision-4 cell (cells are ~49 km wide)
	// must route together; at precision 12 they are distinct cells.
	a, b := Pt(1000, 1000), Pt(1200, 800)
	if PlanarCellID(a, 4) != PlanarCellID(b, 4) {
		t.Fatal("test points unexpectedly straddle a precision-4 cell")
	}
	for _, shards := range []int{2, 4, 8} {
		if ShardOf(a, 4, shards) != ShardOf(b, 4, shards) {
			t.Errorf("same-cell points routed apart at %d shards", shards)
		}
	}
	if PlanarCellID(a, 12) == PlanarCellID(b, 12) {
		t.Error("distinct points share a precision-12 cell 200 m apart")
	}
}

// TestShardOfSpreads: with many distinct cells, the hash must not
// collapse everything onto one shard.
func TestShardOfSpreads(t *testing.T) {
	const shards = 4
	var hit [shards]int
	for i := 0; i < 32; i++ {
		// One point per ~49 km cell stride so each lands in its own cell.
		p := Pt(float64(i)*60_000, float64(i%7)*60_000)
		hit[ShardOf(p, 4, shards)]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Errorf("shard %d never hit across 32 distinct cells", i)
		}
	}
}

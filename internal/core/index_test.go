package core

// Differential tests proving the indexed nearest-station lookup is
// decision-identical to the linear geo.Nearest scan the placers
// originally used: same station indices, same walk distances (bit
// equal), and same RNG draws — so a fixed seed reproduces exactly the
// station set the pre-index implementation produced.

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// assertSameDecision compares a placer decision with the reference
// linear-scan decision field by field, requiring exact float equality.
func assertSameDecision(t *testing.T, step int, got, want Decision) {
	t.Helper()
	if got.StationIndex != want.StationIndex || got.Opened != want.Opened ||
		got.Station != want.Station || got.Walk != want.Walk {
		t.Fatalf("step %d: indexed decision %+v differs from linear-scan reference %+v", step, got, want)
	}
}

// TestESharingDecisionIdenticalToLinearScan replays Algorithm 2 with a
// literal linear-scan reference (the seed implementation) next to the
// indexed placer, sharing the RNG construction, and demands identical
// decisions and station sets.
func TestESharingDecisionIdenticalToLinearScan(t *testing.T) {
	const seed = 99
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 0
	cfg.Seed = seed
	cfg.InitialPenalty = PenaltyTypeIII // nonzero opening probability at range
	cfg.Tolerance = 500
	landmarks := stats.SamplePoints(stats.NewRNG(1),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 3000)}, 40)
	e, err := NewESharing(landmarks, 800, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pen, err := NewPenalty(cfg.InitialPenalty, cfg.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	refRNG := stats.NewRNGStream(seed, stats.StreamESharing)
	refStations := append([]geo.Point(nil), landmarks...)
	refF := 800.0
	refOpensSince := 0
	refPlace := func(dest geo.Point) Decision {
		nearest, c := geo.Nearest(dest, refStations)
		prob := pen.Eval(c) * c / refF
		if prob > 1 {
			prob = 1
		}
		if refRNG.Float64() < prob {
			refStations = append(refStations, dest)
			refOpensSince++
			if float64(refOpensSince) >= cfg.Beta*float64(len(landmarks)) {
				refOpensSince = 0
				refF *= 2
			}
			return Decision{Station: dest, StationIndex: len(refStations) - 1, Opened: true}
		}
		return Decision{Station: refStations[nearest], StationIndex: nearest, Walk: c}
	}

	queryRNG := stats.NewRNG(2)
	dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 3000)}
	for i := 0; i < 3000; i++ {
		dest := dist.Sample(queryRNG)
		got, err := e.Place(dest)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDecision(t, i, got, refPlace(dest))
	}
	gotStations := e.Stations()
	if len(gotStations) != len(refStations) {
		t.Fatalf("station count %d, want %d", len(gotStations), len(refStations))
	}
	for i := range refStations {
		if gotStations[i] != refStations[i] {
			t.Fatalf("station %d: %v vs reference %v", i, gotStations[i], refStations[i])
		}
	}
}

// TestMeyersonDecisionIdenticalToLinearScan does the same for the
// Meyerson baseline.
func TestMeyersonDecisionIdenticalToLinearScan(t *testing.T) {
	const seed, opening = 5, 900.0
	m, err := NewMeyerson(opening, seed)
	if err != nil {
		t.Fatal(err)
	}
	refRNG := stats.NewRNGStream(seed, stats.StreamMeyerson)
	var refStations []geo.Point
	refPlace := func(dest geo.Point) Decision {
		nearest, d := geo.Nearest(dest, refStations)
		prob := 1.0
		if nearest >= 0 {
			prob = d / opening
		}
		if prob > 1 {
			prob = 1
		}
		if refRNG.Float64() < prob {
			refStations = append(refStations, dest)
			return Decision{Station: dest, StationIndex: len(refStations) - 1, Opened: true}
		}
		return Decision{Station: refStations[nearest], StationIndex: nearest, Walk: d}
	}
	queryRNG := stats.NewRNG(6)
	dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 4000)}
	for i := 0; i < 3000; i++ {
		dest := dist.Sample(queryRNG)
		got, err := m.Place(dest)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDecision(t, i, got, refPlace(dest))
	}
}

// TestOnlineKMeansDecisionIdenticalToLinearScan does the same for the
// online k-means baseline, covering the bootstrap and doubling phases.
func TestOnlineKMeansDecisionIdenticalToLinearScan(t *testing.T) {
	const seed, targetK = 11, 8
	o, err := NewOnlineKMeans(targetK, seed)
	if err != nil {
		t.Fatal(err)
	}
	refRNG := stats.NewRNGStream(seed, stats.StreamOnlineKMeans)
	var refStations, refBuffer []geo.Point
	refFacility := 0.0
	refPhaseNew := 0
	refPlace := func(dest geo.Point) Decision {
		if len(refBuffer) <= targetK {
			refBuffer = append(refBuffer, dest)
			refStations = append(refStations, dest)
			if len(refBuffer) == targetK+1 {
				w := medianPairwiseDist(refBuffer)
				if w <= 0 || math.IsInf(w, 1) {
					w = 1
				}
				refFacility = w * w / 2 / float64(targetK)
			}
			return Decision{Station: dest, StationIndex: len(refStations) - 1, Opened: true}
		}
		nearest, d := geo.Nearest(dest, refStations)
		prob := d * d / refFacility
		if prob > 1 {
			prob = 1
		}
		if refRNG.Float64() < prob {
			refStations = append(refStations, dest)
			refPhaseNew++
			if refPhaseNew >= 3*targetK {
				refPhaseNew = 0
				refFacility *= 2
			}
			return Decision{Station: dest, StationIndex: len(refStations) - 1, Opened: true}
		}
		return Decision{Station: refStations[nearest], StationIndex: nearest, Walk: d}
	}
	queryRNG := stats.NewRNG(12)
	dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 4000)}
	for i := 0; i < 3000; i++ {
		dest := dist.Sample(queryRNG)
		got, err := o.Place(dest)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDecision(t, i, got, refPlace(dest))
	}
}

package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// snapshotTestPlacers builds each durable placer twice from identical
// construction inputs, returning (original, restoreTarget) pairs.
func snapshotTestPlacers(t *testing.T) map[string][2]DurablePlacer {
	t.Helper()
	hist := stats.SamplePoints(stats.NewRNG(3),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 80)
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(2000, 0), geo.Pt(0, 2000), geo.Pt(2000, 2000)}
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 25
	cfg.WindowSize = 25
	cfg.Seed = 7

	mk := func() map[string]DurablePlacer {
		es, err := NewESharing(landmarks, 4000, hist, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mey, err := NewMeyerson(1500, 7)
		if err != nil {
			t.Fatal(err)
		}
		km, err := NewOnlineKMeans(8, 7)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]DurablePlacer{"e-sharing": es, "meyerson": mey, "online-kmeans": km}
	}
	a, b := mk(), mk()
	out := map[string][2]DurablePlacer{}
	for name := range a {
		out[name] = [2]DurablePlacer{a[name], b[name]}
	}
	return out
}

func sameDecision(a, b Decision) bool {
	return a.StationIndex == b.StationIndex &&
		a.Opened == b.Opened &&
		math.Float64bits(a.Walk) == math.Float64bits(b.Walk) &&
		math.Float64bits(a.Station.X) == math.Float64bits(b.Station.X) &&
		math.Float64bits(a.Station.Y) == math.Float64bits(b.Station.Y)
}

// TestStateRoundTripContinuesBitIdentically is the core durability
// contract: capture a placer's state mid-stream, restore it into a
// fresh placer built from the same inputs, and both must make
// bit-identical decisions on the remainder of the stream.
func TestStateRoundTripContinuesBitIdentically(t *testing.T) {
	dests := stats.SamplePoints(stats.NewRNG(11),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 400)
	for name, pair := range snapshotTestPlacers(t) {
		t.Run(name, func(t *testing.T) {
			orig, fresh := pair[0], pair[1]
			if orig.ConfigDigest() != fresh.ConfigDigest() {
				t.Fatalf("identical construction inputs produced different digests")
			}
			// Drive the first half through the original only.
			for i, d := range dests[:200] {
				if _, err := orig.Place(d); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			state, err := orig.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.UnmarshalState(state); err != nil {
				t.Fatal(err)
			}
			if got, want := StationDigest(fresh.Stations()), StationDigest(orig.Stations()); got != want {
				t.Fatalf("restored station digest %#x, want %#x", got, want)
			}
			// The second half must produce identical decisions from both.
			for i, d := range dests[200:] {
				da, errA := orig.Place(d)
				db, errB := fresh.Place(d)
				if errA != nil || errB != nil {
					t.Fatalf("request %d: errs %v / %v", i, errA, errB)
				}
				if !sameDecision(da, db) {
					t.Fatalf("request %d diverged: %+v vs %+v", i, da, db)
				}
			}
		})
	}
}

// TestStateRoundTripPreservesESharingFigures pins the ESharing-specific
// state (similarity figure, working cost, counters) across a roundtrip.
func TestStateRoundTripPreservesESharingFigures(t *testing.T) {
	pair := snapshotTestPlacers(t)["e-sharing"]
	orig := pair[0].(*ESharing)
	fresh := pair[1].(*ESharing)
	dests := stats.SamplePoints(stats.NewRNG(13),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 150)
	for _, d := range dests {
		if _, err := orig.Place(d); err != nil {
			t.Fatal(err)
		}
	}
	state, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.LastSimilarity(), orig.LastSimilarity(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("similarity %v, want %v", got, want)
	}
	if got, want := fresh.WorkingOpeningCost(), orig.WorkingOpeningCost(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("working cost %v, want %v", got, want)
	}
	if got, want := fresh.OnlineOpens(), orig.OnlineOpens(); got != want {
		t.Errorf("online opens %d, want %d", got, want)
	}
	if got, want := fresh.LandmarkCount(), orig.LandmarkCount(); got != want {
		t.Errorf("landmarks %d, want %d", got, want)
	}
	if got, want := fresh.Penalty(), orig.Penalty(); got != want {
		t.Errorf("penalty %+v, want %+v", got, want)
	}
}

// TestConfigDigestSensitivity: any change to a construction input must
// change the digest, or recovery would replay into the wrong engine.
func TestConfigDigestSensitivity(t *testing.T) {
	hist := stats.SamplePoints(stats.NewRNG(3),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 40)
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(2000, 2000)}
	base := DefaultESharingConfig()
	mk := func(lm []geo.Point, opening float64, h []geo.Point, cfg ESharingConfig) uint64 {
		es, err := NewESharing(lm, opening, h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return es.ConfigDigest()
	}
	ref := mk(landmarks, 4000, hist, base)
	seeded := base
	seeded.Seed = 99
	tol := base
	tol.Tolerance = 300
	variants := map[string]uint64{
		"seed":      mk(landmarks, 4000, hist, seeded),
		"tolerance": mk(landmarks, 4000, hist, tol),
		"opening":   mk(landmarks, 5000, hist, base),
		"landmarks": mk(landmarks[:1], 4000, hist, base),
		"history":   mk(landmarks, 4000, hist[:39], base),
		"count":     mk(landmarks, 4000, append(slices.Clone(hist), hist[7]), base),
	}
	for name, got := range variants {
		if got == ref {
			t.Errorf("digest insensitive to %s change", name)
		}
	}
	// The history is a multiset: the order its rows arrive in is not a
	// construction input.
	reversed := slices.Clone(hist)
	slices.Reverse(reversed)
	if got := mk(landmarks, 4000, reversed, base); got != ref {
		t.Error("digest depends on the history's row order")
	}

	m1, _ := NewMeyerson(1500, 7)
	m2, _ := NewMeyerson(1500, 8)
	m3, _ := NewMeyerson(1501, 7)
	if m1.ConfigDigest() == m2.ConfigDigest() || m1.ConfigDigest() == m3.ConfigDigest() {
		t.Error("meyerson digest insensitive to seed or opening cost")
	}
	k1, _ := NewOnlineKMeans(8, 7)
	k2, _ := NewOnlineKMeans(9, 7)
	if k1.ConfigDigest() == k2.ConfigDigest() {
		t.Error("kmeans digest insensitive to target k")
	}
	if m1.ConfigDigest() == k1.ConfigDigest() {
		t.Error("different algorithms share a digest")
	}
}

// TestUnmarshalStateRejectsGarbage: truncated or trailing bytes must
// error, never panic or half-apply.
func TestUnmarshalStateRejectsGarbage(t *testing.T) {
	for name, pair := range snapshotTestPlacers(t) {
		t.Run(name, func(t *testing.T) {
			orig, fresh := pair[0], pair[1]
			dests := stats.SamplePoints(stats.NewRNG(5),
				stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 50)
			for _, d := range dests {
				if _, err := orig.Place(d); err != nil {
					t.Fatal(err)
				}
			}
			state, err := orig.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(state); cut += 7 {
				if err := fresh.UnmarshalState(state[:cut]); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			if err := fresh.UnmarshalState(append(append([]byte(nil), state...), 0xAB)); err == nil {
				t.Fatal("trailing byte accepted")
			}
			// A clean state must still restore after the rejections.
			if err := fresh.UnmarshalState(state); err != nil {
				t.Fatalf("clean restore after rejections: %v", err)
			}
		})
	}
}

// TestMarshalStateRefusesCustomPenalty: an installed custom penalty is
// not serializable, so snapshotting must fail loudly.
func TestMarshalStateRefusesCustomPenalty(t *testing.T) {
	pair := snapshotTestPlacers(t)["e-sharing"]
	es := pair[0].(*ESharing)
	es.SetCustomPenalty(func(c float64) float64 { return 1 })
	if _, err := es.MarshalState(); err == nil {
		t.Fatal("MarshalState accepted a custom penalty")
	}
}

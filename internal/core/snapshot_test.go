package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// snapshotTestPlacers builds the durable placer twice from identical
// construction inputs, returning the original and a restore target.
func snapshotTestPlacers(t *testing.T) (orig, fresh *ESharing) {
	t.Helper()
	hist := stats.SamplePoints(stats.NewRNG(3),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 80)
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(2000, 0), geo.Pt(0, 2000), geo.Pt(2000, 2000)}
	cfg := DefaultESharingConfig()
	cfg.TestEvery = 25
	cfg.WindowSize = 25
	cfg.Seed = 7

	mk := func() *ESharing {
		es, err := NewESharing(landmarks, 4000, hist, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}
	return mk(), mk()
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
	t.Run("e-sharing", func(t *testing.T) {
		orig, fresh := snapshotTestPlacers(t)
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

// TestStateRoundTripPreservesESharingFigures pins the ESharing-specific
// state (similarity figure, working cost, counters) across a roundtrip.
func TestStateRoundTripPreservesESharingFigures(t *testing.T) {
	orig, fresh := snapshotTestPlacers(t)
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
	if got, want := fresh.f, orig.f; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("working cost %v, want %v", got, want)
	}
	if got, want := fresh.OnlineOpens(), orig.OnlineOpens(); got != want {
		t.Errorf("online opens %d, want %d", got, want)
	}
	if got, want := fresh.Penalty(), orig.Penalty(); got != want {
		t.Errorf("penalty %+v, want %+v", got, want)
	}
}

// TestESharingStateGolden pins MarshalState's byte layout: the placer
// from snapshotTestPlacers, after a fixed 150-request stream, must
// serialize to exactly the bytes in testdata/esharing_state.golden.
// Those bytes were written by the code that still had station removal,
// so restoring them into a fresh placer, which must then continue
// identically, shows that snapshots already on disk still restore.
func TestESharingStateGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/esharing_state.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatal(err)
	}
	orig, fresh := snapshotTestPlacers(t)
	dests := stats.SamplePoints(stats.NewRNG(13),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 300)
	for _, d := range dests[:150] {
		if _, err := orig.Place(d); err != nil {
			t.Fatal(err)
		}
	}
	state, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, golden) {
		t.Fatalf("MarshalState layout changed:\n got %x\nwant %x", state, golden)
	}
	if err := fresh.UnmarshalState(golden); err != nil {
		t.Fatalf("golden state does not restore: %v", err)
	}
	for i, d := range dests[150:] {
		da, errA := orig.Place(d)
		db, errB := fresh.Place(d)
		if errA != nil || errB != nil {
			t.Fatalf("request %d: errs %v / %v", i, errA, errB)
		}
		if !sameDecision(da, db) {
			t.Fatalf("request %d diverged after golden restore: %+v vs %+v", i, da, db)
		}
	}
}

// TestESharingUnmarshalRejectsLandmarkMismatch: a snapshot comes from
// disk, so a landmark slot other than k, or a station list shorter than
// the k landmarks, must be refused rather than restored.
func TestESharingUnmarshalRejectsLandmarkMismatch(t *testing.T) {
	orig, fresh := snapshotTestPlacers(t)
	state, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Layout: u16 version, u32 station count, 16 bytes per station,
	// then the i64 landmark slot.
	slot := 2 + 4 + 16*orig.k
	withSlot := func(v int64) []byte {
		b := append([]byte(nil), state...)
		for i := 0; i < 8; i++ {
			b[slot+i] = byte(uint64(v) >> (8 * i))
		}
		return b
	}
	for _, v := range []int64{int64(orig.k) - 1, int64(orig.k) + 1, 0, -1} {
		if err := fresh.UnmarshalState(withSlot(v)); err == nil {
			t.Errorf("landmark slot %d accepted (k = %d)", v, orig.k)
		}
	}
	// Drop the last station: the list is then one short of k.
	short := append([]byte(nil), state[:2]...)
	short = append(short, byte(orig.k-1), 0, 0, 0)
	short = append(short, state[6:slot-16]...)
	short = append(short, state[slot:]...)
	if err := fresh.UnmarshalState(short); err == nil {
		t.Errorf("%d stations accepted (k = %d)", orig.k-1, orig.k)
	}
	if err := fresh.UnmarshalState(state); err != nil {
		t.Fatalf("clean restore after rejections: %v", err)
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

}

// TestUnmarshalStateRejectsGarbage: truncated or trailing bytes must
// error, never panic or half-apply.
func TestUnmarshalStateRejectsGarbage(t *testing.T) {
	t.Run("e-sharing", func(t *testing.T) {
		orig, fresh := snapshotTestPlacers(t)
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

// TestMarshalStateRefusesCustomPenalty: an installed custom penalty is
// not serializable, so snapshotting must fail loudly.
func TestMarshalStateRefusesCustomPenalty(t *testing.T) {
	es, _ := snapshotTestPlacers(t)
	es.SetCustomPenalty(func(c float64) float64 { return 1 })
	if _, err := es.MarshalState(); err == nil {
		t.Fatal("MarshalState accepted a custom penalty")
	}
}

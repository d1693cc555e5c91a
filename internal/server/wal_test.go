package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/wal"
)

// newWALPlacer builds the reference ESharing engine used by the
// durability tests; every call returns an identical, freshly seeded
// placer so recovered and reference engines are interchangeable.
func newWALPlacer(t testing.TB) *core.ESharing {
	t.Helper()
	hist := stats.SamplePoints(stats.NewRNG(3),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 60)
	landmarks := []geo.Point{geo.Pt(500, 500), geo.Pt(1500, 1500)}
	cfg := core.DefaultESharingConfig()
	cfg.TestEvery = 10
	cfg.WindowSize = 10
	cfg.Seed = 42
	placer, err := core.NewESharing(landmarks, 3000, hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return placer
}

func walDests(n int) []geo.Point {
	return stats.SamplePoints(stats.NewRNG(17),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, n)
}

// captureState snapshots everything recovery must reproduce: the
// exact stations body and the published counters.
type capturedState struct {
	stationsBody string
	stats        StatsResponse
}

func capture(t *testing.T, srv *Server) capturedState {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stations", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stations: %d", rec.Code)
	}
	body := rec.Body.String()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return capturedState{stationsBody: body, stats: st}
}

func placeOK(t *testing.T, srv *Server, dest geo.Point) {
	t.Helper()
	body, err := json.Marshal(PlaceRequest{Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("place %v: %d %s", dest, rec.Code, rec.Body.String())
	}
}

// sameServingState demands bit-identical recovery: the stations body
// byte for byte, and every counter including the float bit patterns.
func sameServingState(t *testing.T, got, want capturedState) {
	t.Helper()
	if got.stationsBody != want.stationsBody {
		t.Fatalf("stations body diverged:\n got %s\nwant %s", got.stationsBody, want.stationsBody)
	}
	g, w := got.stats, want.stats
	if g.Requests != w.Requests || g.Opened != w.Opened || g.Stations != w.Stations ||
		math.Float64bits(g.WalkTotal) != math.Float64bits(w.WalkTotal) ||
		simPresent(g.LastSimilarity) != simPresent(w.LastSimilarity) ||
		simBits(g.LastSimilarity) != simBits(w.LastSimilarity) {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", g, w)
	}
}

func simPresent(p *float64) bool { return p != nil }

func simBits(p *float64) uint64 {
	if p == nil {
		return 0
	}
	return math.Float64bits(*p)
}

// TestWALRecoveryBitIdentical is the tentpole invariant end to end:
// place a stream, restart from the log (with snapshots interleaved),
// and the recovered server must republish byte- and bit-identical
// stations and counters, and report through WALRecovery how many tail
// records it replayed past the restored snapshot.
func TestWALRecoveryBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery uint64
		wantReplayed  int64 // 50 decisions past the last snapshot
		wantRestored  int
	}{
		{"replay only", 0, 50, 0},
		{"snapshot plus tail", 16, 2, 1},
		{"snapshot on final record", 50, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, tc.snapshotEvery))
			if err != nil {
				t.Fatal(err)
			}
			if replayed, restored := srv.WALRecovery(); replayed != 0 || restored != 0 {
				t.Fatalf("fresh log: WALRecovery = (%d, %d), want (0, 0)", replayed, restored)
			}
			for _, d := range walDests(50) {
				placeOK(t, srv, d)
			}
			before := capture(t, srv)
			if before.stats.Requests != 50 {
				t.Fatalf("requests = %d, want 50", before.stats.Requests)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// A single-shard log sits at the WAL directory itself, the
			// layout every earlier single-shard server wrote and replays.
			if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
				t.Fatalf("single-shard log not at the WAL directory: %v", err)
			}

			restored, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, tc.snapshotEvery))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			sameServingState(t, capture(t, restored), before)
			if replayed, rs := restored.WALRecovery(); replayed != tc.wantReplayed || rs != tc.wantRestored {
				t.Errorf("WALRecovery = (%d, %d), want (%d, %d)", replayed, rs, tc.wantReplayed, tc.wantRestored)
			}

			// The recovered engine must continue the stream exactly as
			// an uninterrupted one would: drive 20 more through the
			// restored server and through a never-crashed reference.
			ref := newWALPlacer(t)
			for _, d := range walDests(50) {
				if _, err := ref.Place(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range walDests(70)[50:] {
				placeOK(t, restored, d)
				if _, err := ref.Place(d); err != nil {
					t.Fatal(err)
				}
			}
			after := capture(t, restored)
			if got, want := core.StationDigest(restored.view().stations), core.StationDigest(ref.Stations()); got != want {
				t.Fatalf("post-recovery stream diverged from uninterrupted reference")
			}
			if after.stats.Requests != 70 {
				t.Fatalf("requests = %d, want 70", after.stats.Requests)
			}
		})
	}
}

// TestWALKillAtEveryByte truncates the decision log at every byte
// offset — everywhere a crash can land — and requires recovery to
// reconstruct exactly the state of some strict prefix of the request
// stream, verified against reference placers, or refuse; never wrong
// state, never a panic.
func TestWALKillAtEveryByte(t *testing.T) {
	const K = 12
	dests := walDests(K)
	dir := t.TempDir()
	srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dests {
		placeOK(t, srv, d)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	// Reference serving states after each prefix length, captured from
	// never-crashed servers.
	refs := make([]capturedState, K+1)
	for n := 0; n <= K; n++ {
		ref, err := newSingle(newWALPlacer(t))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dests[:n] {
			placeOK(t, ref, d)
		}
		refs[n] = capture(t, ref)
	}

	for cut := 0; cut <= len(full); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := newSingle(newWALPlacer(t), WithWAL(cutDir, 1, 0))
		if err != nil {
			// Only a corruption verdict may refuse, and clean
			// truncation must never be judged corrupt.
			t.Fatalf("cut %d: recovery refused: %v", cut, err)
		}
		n := int(restored.shards[0].requests.Load())
		if n > K {
			t.Fatalf("cut %d: recovered %d requests from a %d-request log", cut, n, K)
		}
		sameServingState(t, capture(t, restored), refs[n])
		restored.Close()
	}
}

// TestWALConfigMismatchRefuses: a log written under one engine
// configuration must refuse to replay into another.
func TestWALConfigMismatchRefuses(t *testing.T) {
	dir := t.TempDir()
	srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	placeOK(t, srv, geo.Pt(100, 100))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	other, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = newSingle(other, WithWAL(dir, 1, 0))
	var cm *wal.ConfigMismatchError
	if !errors.As(err, &cm) {
		t.Fatalf("err = %v, want ConfigMismatchError", err)
	}
}

// TestWALReplayDivergenceRefuses: a log whose recorded decisions the
// placer cannot reproduce (here: forged records) must refuse startup
// instead of serving from a diverged engine.
func TestWALReplayDivergenceRefuses(t *testing.T) {
	dir := t.TempDir()
	placer := newWALPlacer(t)
	log, _, err := wal.Open(dir, wal.Options{
		ConfigDigest: placer.ConfigDigest(), Name: placer.Name(), SyncEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A record claiming the very first request opened nothing is a lie:
	// both landmarks are far from this destination, and the forged walk
	// of 0 cannot match.
	if err := log.AppendDecision(wal.DecisionRecord{
		Dest: geo.Pt(0, 2000), Station: geo.Pt(500, 500), StationIndex: 0, Walk: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := newSingle(placer, WithWAL(dir, 1, 0)); err == nil {
		t.Fatal("forged log accepted")
	}
}

// TestWALNonDurablePlacerRefused: WithWAL demands a DurablePlacer.
func TestWALNonDurablePlacerRefused(t *testing.T) {
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSingle(nonDurablePlacer{placer}, WithWAL(t.TempDir(), 1, 0)); err == nil {
		t.Fatal("non-durable placer accepted")
	}
}

// nonDurablePlacer hides the durability methods of a real placer by
// narrowing it to the bare OnlinePlacer interface.
type nonDurablePlacer struct{ core.OnlinePlacer }

// TestWALFailureDegradesHealth: when an append fails, the request
// still succeeds (the decision is already applied) but the server
// reports degraded health and counts the failure.
func TestWALFailureDegradesHealth(t *testing.T) {
	dir := t.TempDir()
	srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	placeOK(t, srv, geo.Pt(100, 100))

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy server reported %d", rec.Code)
	}

	// Sabotage the log file out from under the server; the next append
	// hits a closed descriptor.
	sh := srv.shards[0]
	sh.decision <- struct{}{}
	sh.wal.Close()
	<-sh.decision

	placeOK(t, srv, geo.Pt(200, 200))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded server reported %d: %s", rec.Code, rec.Body.String())
	}
	if got := sh.walFailures.Load(); got == 0 {
		t.Fatal("failure not counted")
	}
	if fams := scrapeMetrics(t, srv); famValue(fams, "esharing_wal_failures_total") == 0 {
		t.Error("metrics do not expose the failure")
	}
}

// scrapeMetrics parses a /metrics response served in-process.
func scrapeMetrics(t *testing.T, srv *Server) map[string]*family {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	return parseExposition(t, rec.Body.String())
}

// famValue returns the single unlabelled sample of a family (0 when
// the family is absent or empty).
func famValue(fams map[string]*family, name string) float64 {
	f := fams[name]
	if f == nil || len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].value
}

// TestWALMetricsExposed: the esharing_wal_* family appears (only) when
// a log is attached.
func TestWALMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, d := range walDests(8) {
		placeOK(t, srv, d)
	}
	fams := scrapeMetrics(t, srv)
	if got := famValue(fams, "esharing_wal_appended_records_total"); got != 8 {
		t.Errorf("appended = %v, want 8", got)
	}
	if got := famValue(fams, "esharing_wal_truncations_total"); got != 2 {
		t.Errorf("truncations = %v, want 2 (8 records at cadence 4)", got)
	}
	if famValue(fams, "esharing_wal_fsyncs_total") == 0 {
		t.Error("no fsyncs counted")
	}
	if famValue(fams, "esharing_wal_size_bytes") == 0 {
		t.Error("no size reported")
	}
	for _, name := range []string{
		"esharing_wal_failures_total", "esharing_wal_replayed_records",
		"esharing_wal_replay_duration_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("metrics missing family %s", name)
		}
	}

	// A restart replays the tail; the replay gauges must say so.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := newSingle(newWALPlacer(t), WithWAL(dir, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := famValue(scrapeMetrics(t, restored), "esharing_wal_replayed_records"); got != 0 {
		// 8 records at cadence 4: the second snapshot covered
		// everything, so the tail is empty.
		t.Errorf("replayed = %v, want 0 after covering snapshot", got)
	}

	bare, err := newSingle(newWALPlacer(t))
	if err != nil {
		t.Fatal(err)
	}
	if scrapeMetrics(t, bare)["esharing_wal_appended_records_total"] != nil {
		t.Error("wal metrics exposed without a wal")
	}
}

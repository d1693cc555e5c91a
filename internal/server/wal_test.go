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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	code, body := do(t, srv, http.MethodGet, "/v1/stations", "")
	if code != http.StatusOK {
		t.Fatalf("stations: %d", code)
	}
	return capturedState{stationsBody: body, stats: statsOf(t, srv)}
}

func placeOK(t *testing.T, srv *Server, dest geo.Point) {
	t.Helper()
	if _, err := place(t, srv, dest); err != nil {
		t.Fatal(err)
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

	// The same engine on one landmark instead of two.
	cfg := core.DefaultESharingConfig()
	cfg.TestEvery = 0
	other, err := core.NewESharing([]geo.Point{geo.Pt(500, 500)}, 3000, nil, cfg)
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

// TestWALNonDurablePlacerRefused: the server demands a
// core.DurablePlacer. The baselines are in-process comparators without
// state codecs, so one is refused with a log configured and without.
func TestWALNonDurablePlacerRefused(t *testing.T) {
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSingle(placer); err == nil {
		t.Error("non-durable placer accepted without a log")
	}
	if _, err := newSingle(placer, WithWAL(t.TempDir(), 1, 0)); err == nil {
		t.Error("non-durable placer accepted with a log")
	}
}

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
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
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

// callOrderPlacer records the order of the placer calls the server
// makes under the decision lock.
type callOrderPlacer struct {
	*core.ESharing
	calls []string
}

func (p *callOrderPlacer) Place(dest geo.Point) (core.Decision, error) {
	p.calls = append(p.calls, "Place")
	return p.ESharing.Place(dest)
}

func (p *callOrderPlacer) Stations() []geo.Point {
	p.calls = append(p.calls, "Stations")
	return p.ESharing.Stations()
}

func (p *callOrderPlacer) MarshalState() ([]byte, error) {
	p.calls = append(p.calls, "MarshalState")
	return p.ESharing.MarshalState()
}

// TestWALLogsBeforePublish: a placement that opens a station is logged
// before the read snapshot shows the station, so no lock-free reader
// sees a station whose decision the log may still lose. At
// SnapshotEvery 1 every append checkpoints the placer, so MarshalState
// marks the log write and must precede the Stations call that publishes
// the new set.
func TestWALLogsBeforePublish(t *testing.T) {
	p := &callOrderPlacer{ESharing: newWALPlacer(t)}
	srv, err := newSingle(p, WithWAL(t.TempDir(), 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, dest := range walDests(200) {
		p.calls = nil
		body, err := json.Marshal(PlaceRequest{Dest: dest})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body)))
		var resp PlaceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("place %v: %d %s", dest, rec.Code, rec.Body.String())
		}
		if !resp.Opened {
			continue
		}
		for _, c := range p.calls {
			if c == "Stations" {
				t.Fatalf("opening placement published before it was logged: calls %v", p.calls)
			}
			if c == "MarshalState" {
				return
			}
		}
		t.Fatalf("opening placement not logged: calls %v", p.calls)
	}
	t.Fatal("no placement opened a station")
}

// TestCloseRefusesPlacements: once Close has flushed and closed the
// decision logs, a placement could no longer be made durable, so it is
// refused with 503, and counted, instead of being acknowledged, and
// /healthz reports the server closed. The reopened log then holds exactly the acknowledged decisions.
func TestCloseRefusesPlacements(t *testing.T) {
	dir := t.TempDir()
	srv, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	placeOK(t, srv, geo.Pt(100, 100))
	before := capture(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := do(t, srv, http.MethodPost, "/v1/requests", placeBody(t, geo.Pt(200, 200))); code != http.StatusServiceUnavailable {
		t.Fatalf("placement after Close: status %d, want 503: %s", code, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	after := capture(t, srv)
	if after.stats.Requests != 1 || after.stats.Errors != 1 {
		t.Errorf("after Close: requests %d, errors %d; want 1 and 1", after.stats.Requests, after.stats.Errors)
	}
	if got := counterValue(scrapeMetrics(t, srv)["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "server_error"}); got != 1 {
		t.Errorf("place server_error counter = %g, want 1", got)
	}
	if code, body := do(t, srv, http.MethodGet, "/healthz", ""); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"closed"`) {
		t.Errorf("/healthz after Close: status %d, want 503 closed: %s", code, body)
	}

	restored, err := newSingle(newWALPlacer(t), WithWAL(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if replayed, _ := restored.WALRecovery(); replayed != 1 {
		t.Errorf("reopened log replayed %d records, want the 1 acknowledged", replayed)
	}
	sameServingState(t, capture(t, restored), before)
}

// TestMetricsScrapeDuringClose: /metrics reads every shard's log
// counters without the decision lock, so scrapes running while Close
// closes the logs must not race it (run with -race), and after Close
// the log families still report what was logged.
func TestMetricsScrapeDuringClose(t *testing.T) {
	srv, err := NewSharded([]core.OnlinePlacer{newWALPlacer(t), newWALPlacer(t)},
		WithShardPrecision(7), WithWAL(t.TempDir(), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const placed = 6
	for _, d := range walDests(placed) {
		placeOK(t, srv, d)
	}
	var scrapes atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("scrape: status %d", rec.Code)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	// Close while the scrapers run, then let them scrape past it.
	waitScrapes := func(n int64) {
		for deadline := time.Now().Add(5 * time.Second); scrapes.Load() < n && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	waitScrapes(4)
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	waitScrapes(scrapes.Load() + 4)
	close(done)
	wg.Wait()
	if got := famValue(scrapeMetrics(t, srv), "esharing_wal_appended_records_total"); got != placed {
		t.Errorf("appended records after Close = %g, want %d", got, placed)
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stats"
)

// newSingle builds a one-shard server around placer.
func newSingle(placer core.OnlinePlacer, opts ...Option) (*Server, error) {
	return NewSharded([]core.OnlinePlacer{placer}, opts...)
}

// newTestServer serves newWALPlacer's engine, whose landmarks are
// (500, 500) and (1500, 1500).
func newTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := newSingle(newWALPlacer(t))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// call serves one request through srv with do and decodes a 200
// response into out. It returns its failure instead of ending the test,
// so storm goroutines can use it too.
func call(t *testing.T, srv *Server, method, target, body string, out any) error {
	t.Helper()
	code, resp := do(t, srv, method, target, body)
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, code, strings.TrimSpace(resp))
	}
	return json.Unmarshal([]byte(resp), out)
}

// place asks srv to place dest and decodes the decision.
func place(t *testing.T, srv *Server, dest geo.Point) (PlaceResponse, error) {
	t.Helper()
	var out PlaceResponse
	body, err := json.Marshal(PlaceRequest{Dest: dest})
	if err == nil {
		err = call(t, srv, http.MethodPost, "/v1/requests", string(body), &out)
	}
	return out, err
}

// statsOf reads srv's /v1/stats.
func statsOf(t *testing.T, srv *Server) StatsResponse {
	t.Helper()
	var out StatsResponse
	if err := call(t, srv, http.MethodGet, "/v1/stats", "", &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// stationsOf reads srv's /v1/stations.
func stationsOf(t *testing.T, srv *Server) []geo.Point {
	t.Helper()
	var out StationsResponse
	if err := call(t, srv, http.MethodGet, "/v1/stations", "", &out); err != nil {
		t.Fatal(err)
	}
	return out.Stations
}

func TestNewValidation(t *testing.T) {
	if _, err := newSingle(nil); err == nil {
		t.Error("nil placer should error")
	}
}

func TestPlaceAndStations(t *testing.T) {
	srv := newTestServer(t)

	first, err := place(t, srv, geo.Pt(500, 500))
	if err != nil {
		t.Fatal(err)
	}
	if first.Opened || first.Station != geo.Pt(500, 500) || first.StationIndex != 0 || first.WalkMeters != 0 {
		t.Errorf("a request on a landmark should assign to it: %+v", first)
	}

	second, err := place(t, srv, geo.Pt(1501, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if second.Opened || second.StationIndex != 1 || second.WalkMeters != 1 {
		t.Errorf("1 m from a landmark should assign to it: %+v", second)
	}

	stations := stationsOf(t, srv)
	if len(stations) != 2 || stations[0] != geo.Pt(500, 500) || stations[1] != geo.Pt(1500, 1500) {
		t.Errorf("stations=%v", stations)
	}
}

func TestStats(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 5; i++ {
		if _, err := place(t, srv, geo.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := statsOf(t, srv)
	if got.Requests != 5 {
		t.Errorf("requests=%d, want 5", got.Requests)
	}
	if got.Algorithm != "e-sharing" {
		t.Errorf("algorithm=%q", got.Algorithm)
	}
	if got.Stations != 2+int(got.Opened) {
		t.Errorf("opened=%d stations=%d, want 2 landmarks + opened", got.Opened, got.Stations)
	}
}

func TestStatsExposesESharingSimilarity(t *testing.T) {
	hist := stats.SamplePoints(stats.NewRNG(1),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 1000)}, 50)
	cfg := core.DefaultESharingConfig()
	cfg.TestEvery = 10
	cfg.WindowSize = 10
	placer, err := core.NewESharing([]geo.Point{geo.Pt(500, 500)}, 5000, hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := place(t, srv, geo.Pt(float64(i*40), 500)); err != nil {
			t.Fatal(err)
		}
	}
	got := statsOf(t, srv)
	if got.LastSimilarity == nil {
		t.Error("E-sharing stats should expose the last similarity")
	} else if *got.LastSimilarity == 0 {
		t.Error("20 in-distribution requests should score a nonzero similarity")
	}
}

func TestHealth(t *testing.T) {
	var body map[string]string
	if err := call(t, newTestServer(t), http.MethodGet, "/healthz", "", &body); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBadRequests(t *testing.T) {
	srv := newTestServer(t)
	tests := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"unknown field", `{"dest":{"x":1,"y":2},"extra":true}`, http.StatusBadRequest},
		{"nan dest", `{"dest":{"x":null,"y":2}}`, http.StatusOK}, // null decodes to 0: valid
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if code, _ := do(t, srv, http.MethodPost, "/v1/requests", tt.body); code != tt.want {
				t.Errorf("status=%d, want %d", code, tt.want)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	if code, _ := do(t, newTestServer(t), http.MethodGet, "/v1/requests", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status=%d", code)
	}
}

func TestFleetEndpointsAbsentWithoutFleet(t *testing.T) {
	// The server holds no tier-2 fleet, so the fleet routes must stay
	// unmatched rather than answer with an empty fleet.
	srv := newTestServer(t)
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/bikes"},
		{http.MethodPost, "/v1/rides"},
		{http.MethodPost, "/v1/charging-round"},
	} {
		if code, _ := do(t, srv, route.method, route.path, "{}"); code != http.StatusNotFound {
			t.Errorf("%s %s: status=%d, want 404", route.method, route.path, code)
		}
	}
}

func TestConcurrentPlacements(t *testing.T) {
	// The server must serialise placer access; hammer it concurrently and
	// verify the counters add up (run with -race in CI).
	srv := newTestServer(t)
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := place(t, srv, geo.Pt(float64(g*100+i), float64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := statsOf(t, srv); got.Requests != goroutines*perG {
		t.Errorf("requests=%d, want %d", got.Requests, goroutines*perG)
	}
}

func TestConcurrentMixedLoadConsistency(t *testing.T) {
	// Storm the write path and every read endpoint at once (run with
	// -race in CI): placements must stay serialised while /v1/stats,
	// /v1/stations and /metrics are served lock-free from the snapshot.
	// Afterwards the counters must reconcile exactly with the responses
	// the writers observed.
	hist := stats.SamplePoints(stats.NewRNG(2),
		stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}, 60)
	cfg := core.DefaultESharingConfig()
	cfg.TestEvery = 25
	cfg.WindowSize = 25
	landmarks := []geo.Point{geo.Pt(0, 0), geo.Pt(2000, 0), geo.Pt(0, 2000), geo.Pt(2000, 2000)}
	placer, err := core.NewESharing(landmarks, 5000, hist, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, readers = 6, 40, 4
	var openedSeen atomic.Int64
	errs := make(chan error, writers+readers)
	done := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 10)
			dist := stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 2000)}
			for i := 0; i < perWriter; i++ {
				resp, err := place(t, srv, dist.Sample(rng))
				if err != nil {
					errs <- err
					return
				}
				if resp.Opened {
					openedSeen.Add(1)
				}
			}
		}(g)
	}
	var readerWg sync.WaitGroup
	for g := 0; g < readers; g++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := call(t, srv, http.MethodGet, "/v1/stats", "", &StatsResponse{}); err != nil {
					errs <- err
					return
				}
				var stations StationsResponse
				if err := call(t, srv, http.MethodGet, "/v1/stations", "", &stations); err != nil {
					errs <- err
					return
				}
				if len(stations.Stations) < len(landmarks) {
					errs <- fmt.Errorf("snapshot lost landmarks: %d stations", len(stations.Stations))
					return
				}
				if code, _ := do(t, srv, http.MethodGet, "/metrics", ""); code != http.StatusOK {
					errs <- fmt.Errorf("metrics: status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readerWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := statsOf(t, srv)
	if got.Requests != writers*perWriter {
		t.Errorf("requests=%d, want %d", got.Requests, writers*perWriter)
	}
	if got.Opened != openedSeen.Load() {
		t.Errorf("opened counter %d, want %d observed by writers", got.Opened, openedSeen.Load())
	}
	if want := len(landmarks) + int(openedSeen.Load()); got.Stations != want {
		t.Errorf("stations=%d, want %d (landmarks + opened)", got.Stations, want)
	}
	if stations := stationsOf(t, srv); len(stations) != got.Stations {
		t.Errorf("/v1/stations has %d entries, stats says %d", len(stations), got.Stations)
	}
	_, body := do(t, srv, http.MethodGet, "/metrics", "")
	want := fmt.Sprintf("esharing_requests_total %d\n", writers*perWriter)
	if !strings.Contains(body, want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 3; i++ {
		if _, err := place(t, srv, geo.Pt(float64(i*500), 0)); err != nil {
			t.Fatal(err)
		}
	}
	code, text := do(t, srv, http.MethodGet, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if !strings.Contains(text, "esharing_requests_total 3") {
		t.Errorf("missing request counter:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE esharing_stations gauge") {
		t.Errorf("missing stations gauge:\n%s", text)
	}
}

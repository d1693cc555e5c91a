package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, client
}

func TestNewValidation(t *testing.T) {
	if _, err := newSingle(nil); err == nil {
		t.Error("nil placer should error")
	}
	if _, err := NewClient("", nil); err == nil {
		t.Error("empty base URL should error")
	}
}

func TestPlaceAndStations(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()

	first, err := client.Place(ctx, geo.Pt(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Opened || first.WalkMeters != 0 {
		t.Errorf("first placement should open: %+v", first)
	}

	second, err := client.Place(ctx, geo.Pt(101, 100))
	if err != nil {
		t.Fatal(err)
	}
	if second.Opened {
		t.Errorf("1 m from a station should assign, not open: %+v", second)
	}
	if second.WalkMeters != 1 {
		t.Errorf("walk=%v, want 1", second.WalkMeters)
	}

	stations, err := client.Stations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != 1 || stations[0] != geo.Pt(100, 100) {
		t.Errorf("stations=%v", stations)
	}
}

func TestStats(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := client.Place(ctx, geo.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != 5 {
		t.Errorf("requests=%d, want 5", got.Requests)
	}
	if got.Algorithm != "meyerson" {
		t.Errorf("algorithm=%q", got.Algorithm)
	}
	if got.Opened < 1 || int(got.Opened) != got.Stations {
		t.Errorf("opened=%d stations=%d", got.Opened, got.Stations)
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
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := client.Place(ctx, geo.Pt(float64(i*40), 500)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSimilarity == nil {
		t.Error("E-sharing stats should expose the last similarity")
	} else if *got.LastSimilarity == 0 {
		t.Error("20 in-distribution requests should score a nonzero similarity")
	}
}

func TestHealth(t *testing.T) {
	_, client := newTestServer(t)
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
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
			resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != tt.want {
				t.Errorf("status=%d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route: status=%d", resp.StatusCode)
	}
}

func TestFleetEndpointsAbsentWithoutFleet(t *testing.T) {
	// The server holds no tier-2 fleet, so the fleet routes must stay
	// unmatched rather than answer with an empty fleet.
	ts, _ := newTestServer(t)
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/bikes"},
		{http.MethodPost, "/v1/rides"},
		{http.MethodPost, "/v1/charging-round"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status=%d, want 404", route.method, route.path, resp.StatusCode)
		}
	}
}

func TestConcurrentPlacements(t *testing.T) {
	// The server must serialise placer access; hammer it concurrently and
	// verify the counters add up (run with -race in CI).
	ts, client := newTestServer(t)
	_ = ts
	ctx := context.Background()
	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := client.Place(ctx, geo.Pt(float64(g*100+i), float64(i))); err != nil {
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
	got, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != goroutines*perG {
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
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

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
				resp, err := client.Place(ctx, dist.Sample(rng))
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
				if _, err := client.Stats(ctx); err != nil {
					errs <- err
					return
				}
				stations, err := client.Stations(ctx)
				if err != nil {
					errs <- err
					return
				}
				if len(stations) < len(landmarks) {
					errs <- fmt.Errorf("snapshot lost landmarks: %d stations", len(stations))
					return
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					errs <- err
					return
				}
				_ = resp.Body.Close()
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

	got, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != writers*perWriter {
		t.Errorf("requests=%d, want %d", got.Requests, writers*perWriter)
	}
	if got.Opened != openedSeen.Load() {
		t.Errorf("opened counter %d, want %d observed by writers", got.Opened, openedSeen.Load())
	}
	if want := len(landmarks) + int(openedSeen.Load()); got.Stations != want {
		t.Errorf("stations=%d, want %d (landmarks + opened)", got.Stations, want)
	}
	stations, err := client.Stations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stations) != got.Stations {
		t.Errorf("/v1/stations has %d entries, stats says %d", len(stations), got.Stations)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("esharing_requests_total %d\n", writers*perWriter)
	if !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client, err := NewClient("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Place(context.Background(), geo.Pt(0, 0)); err == nil {
		t.Error("dead server should error")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, client := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Place(ctx, geo.Pt(float64(i*500), 0)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "esharing_requests_total 3") {
		t.Errorf("missing request counter:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE esharing_stations gauge") {
		t.Errorf("missing stations gauge:\n%s", text)
	}
}

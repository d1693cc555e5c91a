package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/esharing"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestEndToEndPipeline drives the complete system across package
// boundaries: synthetic dataset -> CSV round trip -> offline planning ->
// HTTP serving of live requests -> charging round.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate a week of trips and round-trip them through the CSV
	// codec, as a real deployment ingesting the Mobike dump would.
	raw, err := dataset.Generate(dataset.Config{
		Days: 8, TripsWeekday: 600, TripsWeekend: 450, Bikes: 120, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, raw); err != nil {
		t.Fatal(err)
	}
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9042, Lng: 116.4074})
	trips, err := dataset.ReadCSV(&buf, projector)
	if err != nil {
		t.Fatal(err)
	}
	if len(trips) != len(raw) {
		t.Fatalf("CSV round trip lost trips: %d -> %d", len(raw), len(trips))
	}

	// 2. Split: first 6 days history, rest live.
	cut := raw[0].StartTime.AddDate(0, 0, 6)
	var history, live []dataset.Trip
	for _, tr := range raw { // use raw: exact planar coordinates
		if tr.StartTime.Before(cut) {
			history = append(history, tr)
		} else {
			live = append(live, tr)
		}
	}
	if len(history) == 0 || len(live) == 0 {
		t.Fatal("bad split")
	}

	// 3. Plan offline with the public API.
	sys, err := esharing.New(esharing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	histPts := make([]esharing.Point, len(history))
	for i, tr := range history {
		histPts[i] = esharing.Pt(tr.End.X, tr.End.Y)
	}
	plan, err := sys.PlanOffline(histPts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stations) < 3 {
		t.Fatalf("only %d landmark stations", len(plan.Stations))
	}

	// 4. Serve the planner over HTTP and stream the live days through it.
	handler, err := server.NewSharded([]core.OnlinePlacer{newCorePlacer(t, history)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// call sends one JSON request and decodes the 200 response into out.
	call := func(method, path string, in, out any) {
		t.Helper()
		var body io.Reader
		if in != nil {
			payload, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	var walkSum float64
	for _, tr := range live[:400] {
		var resp server.PlaceResponse
		call(http.MethodPost, "/v1/requests", server.PlaceRequest{Dest: tr.End}, &resp)
		walkSum += resp.WalkMeters
	}
	var statsResp server.StatsResponse
	call(http.MethodGet, "/v1/stats", nil, &statsResp)
	if statsResp.Requests != 400 {
		t.Fatalf("server saw %d requests, want 400", statsResp.Requests)
	}
	if avg := walkSum / 400; avg > 800 {
		t.Errorf("average walk %.0f m too high for a planned system", avg)
	}

	// 5. Tier 2: build a fleet at the server's stations and run a
	// charging round.
	var srvStations server.StationsResponse
	call(http.MethodGet, "/v1/stations", nil, &srvStations)
	stations := srvStations.Stations
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := 1; i <= 150; i++ {
		st := stations[rng.IntN(len(stations))]
		if err := fleet.Add(energy.Bike{ID: int64(i), Loc: st, Level: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.SeedLevels(stats.NewRNG(6), 0.2); err != nil {
		t.Fatal(err)
	}
	report, err := sim.RunChargingRound(stations, fleet, sim.DefaultChargingConfig(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if report.ChargedBikes == 0 {
		t.Error("charging round did nothing")
	}
}

// newCorePlacer plans an e-sharing placer from trip history the way
// cmd/esharing-server does: offline landmarks on 100 m demand cells at
// the server's default opening cost, then Algorithm 2 with the history's
// destinations as its KS sample.
func newCorePlacer(t *testing.T, history []dataset.Trip) *core.ESharing {
	t.Helper()
	const opening = 10000
	dests := geo.FoldPoints(dataset.EndPoints(history))
	problem, err := core.HistoryProblem(dests, 100, opening)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveOffline(problem)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultESharingConfig()
	cfg.Seed = 1
	placer, err := core.NewESharingHistory(problem.Stations(sol), opening, dests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return placer
}

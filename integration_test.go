package repro

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/esharing"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/rebalance"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestEndToEndPipeline drives the complete system across package
// boundaries: synthetic dataset -> CSV round trip -> offline planning ->
// HTTP serving of live requests -> charging round -> rebalancing.
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

	// 4. Serve the planner over HTTP and stream the live days through the
	// typed client.
	coreSys := newCorePlacer(t, history)
	handler, err := server.NewSharded([]core.OnlinePlacer{coreSys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client, err := server.NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var walkSum float64
	for _, tr := range live[:400] {
		resp, err := client.Place(ctx, tr.End)
		if err != nil {
			t.Fatal(err)
		}
		walkSum += resp.WalkMeters
	}
	statsResp, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsResp.Requests != 400 {
		t.Fatalf("server saw %d requests, want 400", statsResp.Requests)
	}
	if avg := walkSum / 400; avg > 800 {
		t.Errorf("average walk %.0f m too high for a planned system", avg)
	}

	// 5. Tier 2: build a fleet at the server's stations and run a
	// charging round.
	stations := make([]geo.Point, 0)
	srvStations, err := client.Stations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stations = append(stations, srvStations...)
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

	// 6. Rebalance the fleet inventory toward demand-proportional
	// targets.
	counts := fleet.GroupByStation(stations, math.Inf(1), false)
	rbStations := make([]rebalance.Station, len(stations))
	weights := make([]float64, len(stations))
	for i, loc := range stations {
		rbStations[i] = rebalance.Station{Loc: loc, Bikes: len(counts[i])}
		weights[i] = 1 + float64(i%3) // synthetic demand weights
	}
	targeted, err := rebalance.ProportionalTargets(rbStations, weights)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := rebalance.Solve(targeted, 8)
	if err != nil {
		t.Fatal(err)
	}
	after, err := rebalance.Apply(targeted, plan2)
	if err != nil {
		t.Fatal(err)
	}
	if rebalance.TotalImbalance(after) > rebalance.TotalImbalance(targeted) {
		t.Error("rebalancing increased imbalance")
	}
}

// newCorePlacer builds an e-sharing placer from trip history for the HTTP
// layer (mirrors cmd/esharing-server).
func newCorePlacer(t *testing.T, history []dataset.Trip) *serverPlacer {
	t.Helper()
	sys, err := esharing.New(esharing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]esharing.Point, len(history))
	for i, tr := range history {
		pts[i] = esharing.Pt(tr.End.X, tr.End.Y)
	}
	if _, err := sys.PlanOffline(pts); err != nil {
		t.Fatal(err)
	}
	return &serverPlacer{sys: sys}
}

// serverPlacer adapts the public esharing.System to core.OnlinePlacer so
// the HTTP server can front it — the same wiring a deployment would use.
type serverPlacer struct {
	sys *esharing.System
}

var _ core.OnlinePlacer = (*serverPlacer)(nil)

func (p *serverPlacer) Place(dest geo.Point) (core.Decision, error) {
	d, err := p.sys.Request(esharing.Pt(dest.X, dest.Y))
	if err != nil {
		return core.Decision{}, err
	}
	station := geo.Pt(d.Station.X, d.Station.Y)
	idx := 0
	for i, s := range p.Stations() {
		if s == station {
			idx = i
			break
		}
	}
	return core.Decision{
		Station:      station,
		StationIndex: idx,
		Opened:       d.Opened,
		Walk:         d.WalkMeters,
	}, nil
}

func (p *serverPlacer) Stations() []geo.Point {
	sts := p.sys.Stations()
	out := make([]geo.Point, len(sts))
	for i, s := range sts {
		out[i] = geo.Pt(s.X, s.Y)
	}
	return out
}

func (p *serverPlacer) Name() string { return "e-sharing (public API)" }

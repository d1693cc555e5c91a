package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geo"
)

func newFleetServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a few stations so charging rounds have somewhere to group.
	for _, p := range []geo.Point{geo.Pt(0, 0), geo.Pt(800, 0), geo.Pt(0, 800)} {
		if _, err := placer.Place(p); err != nil {
			t.Fatal(err)
		}
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer, WithFleet(fleet))
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

// TestWithFleetValidation: a nil fleet is no fleet — the tier-2 routes
// stay unregistered — and the placer checks still apply with a fleet.
func TestWithFleetValidation(t *testing.T) {
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer, WithFleet(nil))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, srv, http.MethodGet, "/v1/bikes", ""); code != http.StatusNotFound {
		t.Errorf("GET /v1/bikes with a nil fleet = %d, want 404", code)
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSingle(nil, WithFleet(fleet)); err == nil {
		t.Error("nil placer should error")
	}
}

func TestFleetEndpointsLifecycle(t *testing.T) {
	_, client := newFleetServer(t)
	ctx := context.Background()

	if err := client.AddBike(ctx, 1, geo.Pt(0, 0), 0.1); err != nil {
		t.Fatal(err)
	}
	if err := client.AddBike(ctx, 2, geo.Pt(800, 0), 0.95); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration is rejected.
	if err := client.AddBike(ctx, 1, geo.Pt(0, 0), 0.5); err == nil {
		t.Error("duplicate bike should error")
	}

	bikes, err := client.Bikes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(bikes.Bikes) != 2 || bikes.Low != 1 {
		t.Errorf("snapshot: %+v", bikes)
	}

	// Ride the healthy bike; level must drop.
	view, err := client.Ride(ctx, 2, geo.Pt(800, 3500))
	if err != nil {
		t.Fatal(err)
	}
	if view.Level >= 0.95 || view.Loc != geo.Pt(800, 3500) {
		t.Errorf("ride result: %+v", view)
	}
	// Unknown bike -> 404.
	if _, err := client.Ride(ctx, 99, geo.Pt(0, 0)); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown bike: %v", err)
	}
	// Empty battery rejected without state change.
	if _, err := client.Ride(ctx, 1, geo.Pt(50000, 0)); err == nil {
		t.Error("over-range ride should error")
	}

	seed := uint64(3)
	report, err := client.ChargingRound(ctx, 0.4, &seed)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalLowBikes < 1 {
		t.Errorf("charging round saw %d low bikes", report.TotalLowBikes)
	}
	after, err := client.Bikes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Low >= bikes.Low && report.ChargedBikes > 0 {
		t.Errorf("low count did not fall: %d -> %d", bikes.Low, after.Low)
	}
}

func TestChargingRoundBadAlpha(t *testing.T) {
	ts, _ := newFleetServer(t)
	resp, err := http.Post(ts.URL+"/v1/charging-round", "application/json",
		strings.NewReader(`{"alpha": 2.0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status=%d", resp.StatusCode)
	}
}

func TestFleetEndpointsAbsentWithoutFleet(t *testing.T) {
	// A server built without WithFleet must not expose tier-2 routes.
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/bikes")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tier-2 route present without fleet: %d", resp.StatusCode)
	}
}

func TestFleetBadBodies(t *testing.T) {
	ts, _ := newFleetServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/v1/bikes", `{`},
		{"/v1/bikes", `{"unknown": 1}`},
		{"/v1/rides", `{`},
		{"/v1/charging-round", `{`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %q: status=%d", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// TestRideStateReadFailureIs500 pins handleRide's contract: when the
// ride applies but the post-ride bike state cannot be read back, the
// response is a 500 — never a 200 carrying a zero-valued BikeView that
// clients would mistake for a bike at the origin with an empty battery.
// The failure is injected through the getBike seam because with the
// real fleet a lookup after a successful ride cannot fail.
func TestRideStateReadFailureIs500(t *testing.T) {
	placer, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(geo.Pt(0, 0)); err != nil {
		t.Fatal(err)
	}
	fleet, err := energy.NewFleet(energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Add(energy.Bike{ID: 7, Loc: geo.Pt(0, 0), Level: 0.9}); err != nil {
		t.Fatal(err)
	}
	srv, err := newSingle(placer, WithFleet(fleet))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy path first: the 200 body reflects real post-ride state.
	code, body := do(t, srv, http.MethodPost, "/v1/rides", `{"bikeId":7,"dest":{"x":100,"y":0}}`)
	if code != http.StatusOK {
		t.Fatalf("ride: %d %s", code, body)
	}
	var view BikeView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if view.ID != 7 || view.Loc != geo.Pt(100, 0) || view.Level >= 0.9 || view.Level <= 0 {
		t.Fatalf("ride view %+v does not reflect the applied ride", view)
	}

	srv.getBike = func(int64) (energy.Bike, error) {
		return energy.Bike{}, errors.New("bike store read failed")
	}
	code, body = do(t, srv, http.MethodPost, "/v1/rides", `{"bikeId":7,"dest":{"x":200,"y":0}}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("unreadable post-ride state got %d %s, want 500", code, body)
	}
	if !strings.Contains(body, "bike state unavailable") {
		t.Errorf("500 body %q does not explain the failure", body)
	}
	// The ride itself was applied before the read-back failed.
	b, err := fleet.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Loc != geo.Pt(200, 0) {
		t.Errorf("bike at %v, want the applied destination (200,0)", b.Loc)
	}
}

// TestChargingSeedOptionalVsExplicitZero pins the ChargingRequest wire
// contract: an absent seed keeps the simulator's default, while an
// explicit "seed":0 — previously swallowed as "unset" by the plain
// uint64 field — is honoured as seed zero. Both forms must serve.
func TestChargingSeedOptionalVsExplicitZero(t *testing.T) {
	var absent ChargingRequest
	if err := json.Unmarshal([]byte(`{"alpha":1}`), &absent); err != nil {
		t.Fatal(err)
	}
	if absent.Seed != nil {
		t.Errorf("absent seed decoded as %v, want nil", *absent.Seed)
	}
	var explicit ChargingRequest
	if err := json.Unmarshal([]byte(`{"alpha":1,"seed":0}`), &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.Seed == nil || *explicit.Seed != 0 {
		t.Errorf("explicit zero seed decoded as %v, want *0", explicit.Seed)
	}

	_, client := newFleetServer(t)
	ctx := context.Background()
	for i := int64(1); i <= 4; i++ {
		if err := client.AddBike(ctx, i, geo.Pt(0, 0), 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.ChargingRound(ctx, 0.4, nil); err != nil {
		t.Fatalf("charging round without a seed: %v", err)
	}
	zero := uint64(0)
	report, err := client.ChargingRound(ctx, 0.4, &zero)
	if err != nil {
		t.Fatalf("charging round with explicit seed 0: %v", err)
	}
	if report == nil {
		t.Fatal("nil report")
	}
}

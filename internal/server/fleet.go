package server

import (
	"errors"
	"net/http"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/sim"
)

// Tier-2 endpoints: when the server is built with a fleet (WithFleet),
// it additionally exposes bike registration, rides and charging rounds.
//
//	GET  /v1/bikes           -> fleet snapshot
//	POST /v1/bikes           -> register a bike
//	POST /v1/rides           -> ride a bike to a destination
//	POST /v1/charging-round  -> run one incentivised charging round

// BikeView is a bike over the wire.
type BikeView struct {
	ID    int64     `json:"id"`
	Loc   geo.Point `json:"loc"`
	Level float64   `json:"level"`
}

// BikesResponse is the body of GET /v1/bikes.
type BikesResponse struct {
	Bikes []BikeView `json:"bikes"`
	Low   int        `json:"low"`
}

// RideRequest is the body of POST /v1/rides.
type RideRequest struct {
	BikeID int64     `json:"bikeId"`
	Dest   geo.Point `json:"dest"`
}

// ChargingRequest is the body of POST /v1/charging-round. Seed is a
// pointer so "no seed given" (use the default cadence seed) and an
// explicit seed 0 are distinguishable — with a plain uint64, a client
// asking for seed 0 silently got the default.
type ChargingRequest struct {
	Alpha float64 `json:"alpha"`
	Seed  *uint64 `json:"seed,omitempty"`
}

// WithFleet attaches a fleet for tier-2 operations, which enables the
// fleet endpoints. The fleet is global — one lock, independent of every
// decision loop — since bikes move between regions. A nil fleet leaves
// the tier-2 endpoints off, as if the option were not given.
func WithFleet(fleet *energy.Fleet) Option {
	return func(s *Server) {
		if fleet == nil {
			return
		}
		s.fleet = fleet //esharing:allow guardedby -- construction-time write; no handler can run yet
		s.getBike = fleet.Get
	}
}

func (s *Server) handleBikes(w http.ResponseWriter, _ *http.Request) {
	s.fleetMu.Lock()
	bikes := s.fleet.Bikes()
	low := len(s.fleet.LowBikes())
	s.fleetMu.Unlock()
	resp := BikesResponse{Bikes: make([]BikeView, len(bikes)), Low: low}
	for i, b := range bikes {
		resp.Bikes[i] = BikeView{ID: b.ID, Loc: b.Loc, Level: b.Level}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAddBike(w http.ResponseWriter, r *http.Request) {
	var req BikeView
	if !decodeBody(w, r, &req) {
		return
	}
	s.fleetMu.Lock()
	err := s.fleet.Add(energy.Bike{ID: req.ID, Loc: req.Loc, Level: req.Level})
	s.fleetMu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, req)
}

func (s *Server) handleRide(w http.ResponseWriter, r *http.Request) {
	var req RideRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.fleetMu.Lock()
	err := s.fleet.Ride(req.BikeID, req.Dest)
	var view BikeView
	var gerr error
	if err == nil {
		var b energy.Bike
		if b, gerr = s.getBike(req.BikeID); gerr == nil {
			view = BikeView{ID: b.ID, Loc: b.Loc, Level: b.Level}
		}
	}
	s.fleetMu.Unlock()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, energy.ErrUnknownBike) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	if gerr != nil {
		// The ride was applied but its result could not be read back. A
		// 200 body must reflect real post-ride state, never a
		// zero-valued placeholder, so this is a server error.
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: "ride applied but bike state unavailable: " + gerr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleChargingRound(w http.ResponseWriter, r *http.Request) {
	var req ChargingRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The charging round needs the established stations (read from the
	// merged view — never a decision lock) and exclusive access to the
	// fleet it relocates. The view's slice is shared with other readers,
	// so hand the simulator its own copy.
	stations := append([]geo.Point(nil), s.view().stations...)
	cfg := sim.DefaultChargingConfig(req.Alpha)
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	s.fleetMu.Lock()
	report, err := sim.RunChargingRound(stations, s.fleet, cfg)
	s.fleetMu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, report)
}

// Package server exposes the E-Sharing backend over HTTP/JSON: trip
// requests stream in, parking decisions stream back (the paper's system
// architecture, Fig. 3, steps ②–④). Placement decisions are
// order-dependent only within a city region, so the server is
// geo-sharded: each shard owns an independent placer behind its own
// bounded admission gate and decision channel-lock, and
// POST /v1/requests routes to the shard owning the destination's planar
// cell (geo.ShardOf). Up to MaxInFlight requests (divided across
// shards) may hold or queue for a decision lock, and anything beyond
// that is shed immediately with 429 + Retry-After so goroutines never
// pile up unboundedly. Queued requests honour context cancellation.
// The read endpoints (/v1/stations, /v1/stats, /healthz, /metrics) are
// lock-free, served from per-shard atomic counters and immutable
// per-shard station snapshots merged deterministically in shard-index
// order, so monitoring scrapes and dashboard polls never block any
// decision stream. A single-shard server is the same shape with N = 1:
// it routes, reports and exports per-shard figures exactly as an
// N-shard one does.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wal"
)

// DefaultMaxInFlight is the admission-queue capacity used when no
// WithMaxInFlight option is given: enough headroom that a benchmark
// saturating every core never sheds, small enough that a stalled placer
// cannot accumulate unbounded goroutines.
const DefaultMaxInFlight = 256

// errClosed refuses placements after Server.Close: the decision log is
// closed, so an acknowledged decision could no longer be made durable.
var errClosed = errors.New("server closed: placements are no longer accepted")

// PlaceRequest is the body of POST /v1/requests.
type PlaceRequest struct {
	// Dest is the rider's destination in planar metres.
	Dest geo.Point `json:"dest"`
}

// PlaceResponse mirrors core.Decision over the wire.
type PlaceResponse struct {
	Station      geo.Point `json:"station"`
	StationIndex int       `json:"stationIndex"`
	Opened       bool      `json:"opened"`
	WalkMeters   float64   `json:"walkMeters"`
}

// StationsResponse is the body of GET /v1/stations.
type StationsResponse struct {
	Stations []geo.Point `json:"stations"`
}

// ShardStats is one shard's slice of StatsResponse.
type ShardStats struct {
	Shard          int      `json:"shard"`
	Requests       int64    `json:"requests"`
	Opened         int64    `json:"opened"`
	WalkTotal      float64  `json:"walkTotalMeters"`
	Stations       int      `json:"stations"`
	Shed           int64    `json:"shed"`
	LastSimilarity *float64 `json:"lastSimilarityPct,omitempty"`
}

// StatsResponse is the body of GET /v1/stats. LastSimilarity is a
// pointer so that a placer without a similarity figure omits the field
// while a legitimate 0% similarity serialises as an explicit zero —
// with a plain omitempty float the two were indistinguishable. Shards
// has one entry per shard; the top-level counters are the fleet-wide
// aggregates (LastSimilarity is the request-weighted mean of the
// shards' figures, which on one shard is that shard's figure bit for
// bit).
type StatsResponse struct {
	Algorithm      string       `json:"algorithm"`
	Requests       int64        `json:"requests"`
	Opened         int64        `json:"opened"`
	WalkTotal      float64      `json:"walkTotalMeters"`
	Stations       int          `json:"stations"`
	Errors         int64        `json:"errors"`
	Shed           int64        `json:"shed"`
	LastSimilarity *float64     `json:"lastSimilarityPct,omitempty"`
	Shards         []ShardStats `json:"shards"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// readSnapshot is one shard's immutable state served to the lock-free
// read endpoints. The stations slice is never mutated after publication
// — a fresh copy is taken from the placer whenever a decision opens a
// station — so concurrent readers may share it without copying.
type readSnapshot struct {
	stations []geo.Point
	lastSim  float64
	hasSim   bool // the placer reports a similarity figure
}

// mergedView is the fleet-wide read state: the per-shard snapshots it
// was built from and their station sets concatenated in shard-index
// order (so /v1/stations is deterministic for a fixed per-shard state).
// stationsJSON memoises the marshalled /v1/stations body: the merged
// station set only changes when some shard republishes, so every reader
// in between shares one encoding instead of re-marshalling thousands of
// points per poll.
type mergedView struct {
	parts    []*readSnapshot // shard-index order, len == len(shards)
	stations []geo.Point

	stationsJSON atomic.Pointer[[]byte]
}

// valid reports whether the view still reflects every shard's current
// snapshot, i.e. serving it is indistinguishable from rebuilding it.
func (v *mergedView) valid(shards []*shard) bool {
	for i, sh := range shards {
		if v.parts[i] != sh.snap.Load() {
			return false
		}
	}
	return true
}

// sameStationArrays reports whether two snapshot lists carry the same
// station arrays (by identity, which implies identical content since
// published slices are immutable). True when only similarity figures
// changed between views, letting the cached stations encoding carry
// over.
func sameStationArrays(a, b []*readSnapshot) bool {
	for i := range a {
		sa, sb := a[i].stations, b[i].stations
		if len(sa) != len(sb) {
			return false
		}
		if len(sa) > 0 && &sa[0] != &sb[0] {
			return false
		}
	}
	return true
}

// Server wraps one or more online placers (one per geo-shard) behind an
// HTTP API.
type Server struct {
	name string // shard 0's placer.Name(), cached for reads

	// shards are the independent decision loops; immutable after
	// NewSharded.
	// Requests route by the planar cell of their destination at
	// shardPrecision (see geo.ShardOf).
	shards         []*shard
	shardPrecision int
	maxInFlight    int // fleet-wide admission budget (-max-inflight)

	// WAL configuration handed to the shards by NewSharded; each shard
	// owns its log (multi-shard servers use walDir/shard-<index>).
	// walOpts carries the sync and snapshot cadences; openWAL fills in
	// the shard's engine identity.
	walDir  string
	walOpts wal.Options

	// Serving-path instrumentation, all lock-free (see metrics.go).
	errors    atomic.Int64 // all >=400 responses across endpoints
	inflight  atomic.Int64 // HTTP requests currently being served
	endpoints [numEndpoints]endpointMetrics

	merged atomic.Pointer[mergedView]

	mux *http.ServeMux
	// fallback serves requests no registered route matches, wrapping the
	// mux's own 404/405 responses in instrumentation so every
	// client-visible error lands in the counters (see ServeHTTP).
	fallback http.HandlerFunc
}

var _ http.Handler = (*Server)(nil)

// Option configures a Server.
type Option func(*Server)

// WithMaxInFlight bounds how many placement requests may hold or queue
// for the decision locks at once, divided evenly across shards (at
// least 1 per shard); requests beyond a shard's share are shed with 429
// Too Many Requests. NewSharded refuses n < 1.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		s.maxInFlight = n
	}
}

// WithShardPrecision sets the planar cell precision used to route
// placement requests to shards (see geo.PlanarCellID): lower values
// make larger cells (geo.DefaultShardPrecision ≈ one cell per city),
// higher values shard within a city. Out-of-range values clamp to
// [1, 12]. Irrelevant on a single-shard server.
func WithShardPrecision(p int) Option {
	return func(s *Server) {
		s.shardPrecision = p
	}
}

// NewSharded builds a geo-sharded Server: one independent decision loop
// per placer, with placement requests routed by destination cell and
// read endpoints merging the per-shard state. Every placer must be a
// core.DurablePlacer (the server runs *core.ESharing); a one-element
// slice is a single-shard server.
func NewSharded(placers []core.OnlinePlacer, opts ...Option) (*Server, error) {
	if len(placers) == 0 {
		return nil, errors.New("server: no placers")
	}
	s := &Server{
		shardPrecision: geo.DefaultShardPrecision,
		maxInFlight:    DefaultMaxInFlight,
		mux:            http.NewServeMux(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.maxInFlight < 1 {
		return nil, fmt.Errorf("server: max in-flight %d: want at least 1", s.maxInFlight)
	}
	perShard := s.maxInFlight / len(placers)
	if perShard < 1 {
		perShard = 1
	}
	s.shards = make([]*shard, len(placers))
	for i, p := range placers {
		dp, ok := p.(core.DurablePlacer)
		if !ok {
			return nil, fmt.Errorf("server: shard %d placer %T is not a core.DurablePlacer", i, p)
		}
		s.shards[i] = newShard(i, dp, perShard)
	}
	s.name = placers[0].Name()
	if s.walDir != "" {
		// Recover every shard before the first snapshot publication so
		// the read endpoints never expose pre-recovery state. A
		// single-shard log lives at walDir itself: that is the on-disk
		// layout of every single-shard log ever written.
		for i, sh := range s.shards {
			dir := s.walDir
			if len(s.shards) > 1 {
				dir = filepath.Join(s.walDir, fmt.Sprintf("shard-%03d", i))
			}
			if err := sh.openWAL(dir, s.walOpts); err != nil {
				for _, prev := range s.shards[:i] {
					//esharing:allow walerr -- best-effort cleanup after a failed startup; the open error is what propagates
					_ = prev.closeWAL()
				}
				return nil, err
			}
		}
	}
	for _, sh := range s.shards {
		sh.publishSnapshot()
	}
	s.mux.HandleFunc("POST /v1/requests", s.instrument(epPlace, s.handlePlace))
	s.mux.HandleFunc("GET /v1/stations", s.instrument(epStations, s.handleStations))
	s.mux.HandleFunc("GET /v1/stats", s.instrument(epStats, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument(epHealth, s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument(epMetrics, s.handleMetrics))
	s.fallback = s.instrument(epOther, s.mux.ServeHTTP)
	return s, nil
}

// ServeHTTP implements http.Handler. Matched routes carry their own
// instrumentation; unmatched requests — where the mux would answer
// 404/405 itself — are routed through the epOther fallback so those
// errors still reconcile with the counters. ServeMux.Handler returns an
// empty pattern exactly when no route matches (for both the
// not-found and the method-mismatch responses).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		s.fallback(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// view returns the merged read state, no staler than the moment of the
// call: a cached view is served only while every shard's snapshot is
// still the one it was built from, otherwise a fresh view is built from
// the current snapshots. Rebuilds race benignly — last store wins, and
// a reader that loads an older cached view re-validates it before
// serving, so a decision whose response has been committed is never
// hidden.
//
//esharing:hotpath
func (s *Server) view() *mergedView {
	cur := s.merged.Load()
	if cur != nil && cur.valid(s.shards) {
		return cur
	}
	parts := make([]*readSnapshot, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		parts[i] = sh.snap.Load()
		total += len(parts[i].stations)
	}
	next := &mergedView{parts: parts}
	if cur != nil && sameStationArrays(cur.parts, parts) {
		// Only similarity figures changed; the station content is
		// identical, so the merged set and its cached encoding carry
		// over byte-accurate.
		next.stations = cur.stations
		if b := cur.stationsJSON.Load(); b != nil {
			next.stationsJSON.Store(b)
		}
	} else {
		next.stations = make([]geo.Point, 0, total)
		for _, p := range parts {
			next.stations = append(next.stations, p.stations...)
		}
	}
	s.merged.Store(next)
	return next
}

// handlePlace serves POST /v1/requests: shard routing, admission gate,
// decision lock, placement, snapshot refresh.
//
//esharing:hotpath
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !req.Dest.IsFinite() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "destination must be finite"})
		return
	}
	sh := s.route(req.Dest)

	// Admission gate: claim a queue slot on the destination's shard or
	// shed immediately. Shedding here — before touching the decision
	// lock — keeps the 429 path O(1) no matter how stalled the placer
	// is.
	select {
	case sh.queue <- struct{}{}:
	default:
		sh.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: sh.shedMsg})
		return
	}
	defer func() { <-sh.queue }()

	decision, acquired, err := sh.placeLocked(r.Context(), req.Dest)
	switch {
	case !acquired:
		writeJSON(w, statusClientClosedRequest,
			errorBody{Error: "request canceled while queued for placement"})
		return
	case errors.Is(err, errClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, PlaceResponse{
		Station:      decision.Station,
		StationIndex: decision.StationIndex,
		Opened:       decision.Opened,
		WalkMeters:   decision.Walk,
	})
}

// placeLocked serialises one placement on the shard: it waits for the
// decision lock — abandoning the wait, with acquired=false, if the
// client gives up first — refuses with errClosed once Server.Close has
// run, applies the placement, updates the serving counters, logs the
// decision durably, and then refreshes the read snapshot.
// The lock is released by defer, so a panicking placer cannot leak it;
// the release still precedes the caller's response write.
//
//esharing:hotpath
//esharing:deterministic
func (sh *shard) placeLocked(ctx context.Context, dest geo.Point) (decision core.Decision, acquired bool, err error) {
	select {
	case sh.decision <- struct{}{}:
	case <-ctx.Done():
		return core.Decision{}, false, nil
	}
	defer func() { <-sh.decision }()
	if sh.closed.Load() {
		return core.Decision{}, true, errClosed
	}
	if sh.beforePlace != nil {
		if err := sh.beforePlace(dest); err != nil {
			return core.Decision{}, true, err
		}
	}
	decision, err = sh.placer.Place(dest)
	if err != nil {
		return core.Decision{}, true, err
	}
	sh.record(decision)
	// The decision is durable (modulo -wal-sync batching) before the
	// read snapshot shows it, the lock is released and the response
	// committed: no lock-free reader sees a station the log may lose.
	sh.logDecision(dest, decision)
	sh.refreshAfterPlace(decision.Opened)
	return decision, true, nil
}

// handleStations serves GET /v1/stations from the merged view —
// per-shard station sets concatenated in shard-index order — memoising
// the marshalled body between shard publications.
//
//esharing:hotpath
func (s *Server) handleStations(w http.ResponseWriter, _ *http.Request) {
	v := s.view()
	if b := v.stationsJSON.Load(); b != nil {
		writeJSONBytes(w, *b)
		return
	}
	buf, err := json.Marshal(StationsResponse{Stations: v.stations})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode stations: " + err.Error()})
		return
	}
	buf = append(buf, '\n')
	// Concurrent first readers may both marshal; last store wins and
	// the results are identical, so this race is benign.
	v.stationsJSON.Store(&buf)
	writeJSONBytes(w, buf)
}

// handleStats serves GET /v1/stats from the per-shard atomics and the
// merged view, summed in shard-index order so the aggregate floats are
// deterministic for a fixed per-shard state. The aggregate similarity
// is Σ (rᵢ/R)·sᵢ over the shards with a figure (rᵢ their requests, R
// the sum of rᵢ): each weight is formed before it scales sᵢ, so one
// shard reports 1.0·s, its own figure bit for bit. With no requests yet
// (R = 0) it is the unweighted mean.
//
//esharing:hotpath
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	v := s.view()
	resp := StatsResponse{
		Algorithm: s.name,
		Stations:  len(v.stations),
		Errors:    s.errors.Load(),
		Shards:    make([]ShardStats, len(s.shards)),
	}
	var simSum, simReqs float64
	simCount := 0
	for i, sh := range s.shards {
		part := v.parts[i]
		ss := ShardStats{
			Shard:     i,
			Requests:  sh.requests.Load(),
			Opened:    sh.opened.Load(),
			WalkTotal: math.Float64frombits(sh.walkBits.Load()),
			Stations:  len(part.stations),
			Shed:      sh.shed.Load(),
		}
		if part.hasSim {
			sim := part.lastSim
			ss.LastSimilarity = &sim
			simSum += sim
			simReqs += float64(ss.Requests)
			simCount++
		}
		resp.Shards[i] = ss
		resp.Requests += ss.Requests
		resp.Opened += ss.Opened
		resp.WalkTotal += ss.WalkTotal
		resp.Shed += ss.Shed
	}
	if simCount > 0 {
		sim := simSum / float64(simCount)
		if simReqs > 0 {
			sim = 0
			for _, ss := range resp.Shards {
				if ss.LastSimilarity != nil {
					sim += float64(ss.Requests) / simReqs * *ss.LastSimilarity
				}
			}
		}
		resp.LastSimilarity = &sim
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth answers 503 once Close has run or any shard's log has
// latched a failure, and 200 otherwise.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	for _, sh := range s.shards {
		if sh.closed.Load() {
			// Close has run: every placement now answers 503, so the
			// instance must leave the rotation.
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "closed",
				"reason": errClosed.Error(),
			})
			return
		}
		if sh.walFailed.Load() {
			// A WAL append or snapshot failed on some shard: decisions
			// since then are not durable, so the instance must be
			// drained and replaced even though it still serves
			// correctly from memory.
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "degraded",
				"reason": "decision log write failed; recent decisions are not durable",
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// decodeBody decodes a JSON request body into v, writing the error
// response itself when decoding fails (413 when the body blew through
// the http.MaxBytesReader cap, 400 otherwise).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return false
	}
	return true
}

// writeJSONBytes serves a pre-encoded JSON body.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is committed can only be
	// reported by aborting the connection; ignore them.
	_ = json.NewEncoder(w).Encode(v)
}

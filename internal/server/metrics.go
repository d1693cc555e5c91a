package server

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Per-endpoint request instrumentation. Every observation path is
// lock-free — fixed-bucket histograms and counter families backed by
// atomics — so a /metrics scrape (or a latency observation on the hot
// path) never contends with the serialised decision stream.

// Endpoint indices for the instrumented routes. epOther catches
// requests no registered route matches (the mux's 404/405 responses),
// which would otherwise bypass instrumentation and leave client-visible
// errors uncounted.
const (
	epPlace = iota
	epStations
	epStats
	epHealth
	epMetrics
	epOther
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"place", "stations", "stats", "healthz", "metrics", "other",
}

// Error kinds for esharing_request_errors_total, derived from the
// response status so the counters reconcile exactly with what clients
// observed.
const (
	kindBadRequest = iota
	kindTooLarge
	kindNotFound
	kindMethodNotAllowed
	kindUnprocessable
	kindShed
	kindCanceled
	kindServerError
	kindOther
	numKinds
)

var kindNames = [numKinds]string{
	"bad_request", "too_large", "not_found", "method_not_allowed",
	"unprocessable", "shed", "canceled", "server_error", "other",
}

// statusClientClosedRequest reports a request whose context was
// cancelled while it waited in the admission queue (nginx's 499
// convention; the client is gone, so the code is for the books only).
const statusClientClosedRequest = 499

func kindOfStatus(status int) int {
	switch {
	case status == http.StatusRequestEntityTooLarge:
		return kindTooLarge
	case status == http.StatusNotFound:
		return kindNotFound
	case status == http.StatusMethodNotAllowed:
		return kindMethodNotAllowed
	case status == http.StatusUnprocessableEntity:
		return kindUnprocessable
	case status == http.StatusTooManyRequests:
		return kindShed
	case status == statusClientClosedRequest:
		return kindCanceled
	case status >= 500:
		return kindServerError
	case status == http.StatusBadRequest:
		return kindBadRequest
	default:
		return kindOther
	}
}

// latencyBucketBounds are the histogram upper bounds in seconds
// (exclusive of the implicit +Inf bucket). They span 100µs..5s: the
// decision hot path sits in the first few buckets, queue waits and
// drift tests on a large history in the tail.
var latencyBucketBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// numLatencyBuckets counts the finite bounds plus the +Inf bucket.
const numLatencyBuckets = 16

// Pre-rendered static prefixes of every histogram and error-counter
// sample line ("name{labels} " up to the value). A scrape only appends
// integers to these, which keeps /metrics off the fmt slow path — it is
// polled continuously by monitoring while the decision stream runs.
var (
	histBucketPrefixes [numEndpoints][numLatencyBuckets]string
	histSumPrefixes    [numEndpoints]string
	histCountPrefixes  [numEndpoints]string
	errLinePrefixes    [numEndpoints][numKinds]string
)

func init() {
	if len(latencyBucketBounds)+1 != numLatencyBuckets {
		panic("server: numLatencyBuckets out of sync with latencyBucketBounds")
	}
	for ep, name := range endpointNames {
		for i, bound := range latencyBucketBounds {
			histBucketPrefixes[ep][i] = fmt.Sprintf(
				"esharing_request_duration_seconds_bucket{endpoint=%q,le=%q} ", name, formatBound(bound))
		}
		histBucketPrefixes[ep][numLatencyBuckets-1] = fmt.Sprintf(
			"esharing_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} ", name)
		histSumPrefixes[ep] = fmt.Sprintf("esharing_request_duration_seconds_sum{endpoint=%q} ", name)
		histCountPrefixes[ep] = fmt.Sprintf("esharing_request_duration_seconds_count{endpoint=%q} ", name)
		for k, kind := range kindNames {
			errLinePrefixes[ep][k] = fmt.Sprintf(
				"esharing_request_errors_total{endpoint=%q,kind=%q} ", name, kind)
		}
	}
}

// latencyHistogram is a fixed-bucket histogram with atomic counters.
// Buckets store per-bucket (non-cumulative) counts; the renderer
// accumulates them into Prometheus's cumulative le-form at scrape time,
// so observers never touch more than one counter.
type latencyHistogram struct {
	buckets  [numLatencyBuckets]atomic.Int64
	sumNanos atomic.Int64
}

// observe records one request latency; it runs on every served
// request, so it must stay allocation-free.
//
//esharing:hotpath
func (h *latencyHistogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.SearchFloat64s(latencyBucketBounds, d.Seconds())
	h.buckets[i].Add(1) // i == len(bounds) is the +Inf bucket
	h.sumNanos.Add(int64(d))
}

// endpointMetrics aggregates one route's latency histogram and error
// counters.
type endpointMetrics struct {
	latency latencyHistogram
	errs    [numKinds]atomic.Int64
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// maxBodyBytes caps request bodies: a placement request is a small
// JSON object, so anything bigger is garbage or abuse.
const maxBodyBytes = 1 << 20

// instrument wraps a route handler with the shared serving-path
// armour: body-size cap, in-flight gauge, latency histogram, and
// status-derived error counting. The returned closure inherits the
// hot-path constraint — it brackets every request.
//
//esharing:hotpath
func (s *Server) instrument(ep int, h http.HandlerFunc) http.HandlerFunc {
	m := &s.endpoints[ep]
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if r.Method == http.MethodPost && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		m.latency.observe(time.Since(start))
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if status >= 400 {
			s.errors.Add(1)
			m.errs[kindOfStatus(status)].Add(1)
		}
	}
}

// handleMetrics renders counters in the Prometheus text exposition
// format so standard scrapers can monitor a deployment without extra
// dependencies. Everything comes from atomic counters and the published
// station snapshots, so a scrape never contends with the placement
// decision stream.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	v := s.view()
	var requests, opened, shed int64
	var walk float64
	var queueDepth, queueLimit int
	for _, sh := range s.shards {
		requests += sh.requests.Load()
		opened += sh.opened.Load()
		walk += math.Float64frombits(sh.walkBits.Load())
		shed += sh.shed.Load()
		queueDepth += len(sh.queue)
		queueLimit += sh.maxInFlight
	}
	hasWAL := s.walDir != ""
	stations := len(v.stations)

	var sb strings.Builder
	sb.Grow(8 << 10)
	writeMetric := func(name, help, typ string, value any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
	}
	writeMetric("esharing_requests_total", "Trip requests served.", "counter", requests)
	writeMetric("esharing_stations_opened_total", "Stations opened online.", "counter", opened)
	writeMetric("esharing_walk_meters_total", "Cumulative rider walking distance.", "counter", walk)
	writeMetric("esharing_stations", "Currently established stations.", "gauge", stations)
	writeMetric("esharing_requests_shed_total", "Placement requests shed with 429 because the admission queue was full.", "counter", shed)
	writeMetric("esharing_request_errors_all_total", "Error responses across all endpoints.", "counter", s.errors.Load())
	writeMetric("esharing_inflight_requests", "HTTP requests currently being served.", "gauge", s.inflight.Load())
	writeMetric("esharing_place_queue_depth", "Placement requests admitted and queued on the decision locks.", "gauge", queueDepth)
	writeMetric("esharing_place_queue_limit", "Admission queue capacity (-max-inflight, summed over shards).", "gauge", queueLimit)
	writeMetric("esharing_shards", "Independent geo-sharded decision loops.", "gauge", len(s.shards))
	if hasWAL {
		var wm wal.Metrics
		var walFailures, walReplayed, walReplayNanos int64
		for _, sh := range s.shards {
			// The wal pointers are written once during construction and
			// cleared only by Close; their Metrics() reads are atomic.
			if sh.wal == nil { //esharing:allow guardedby -- set-once pointer, internally atomic counters
				continue
			}
			m := sh.wal.Metrics() //esharing:allow guardedby -- same
			wm.Appended += m.Appended
			wm.Fsyncs += m.Fsyncs
			wm.Truncations += m.Truncations
			wm.Size += m.Size
			walFailures += sh.walFailures.Load()
			walReplayed += sh.walReplayed.Load()
			walReplayNanos += sh.walReplayNanos.Load()
		}
		writeMetric("esharing_wal_appended_records_total", "Decision log records appended.", "counter", wm.Appended)
		writeMetric("esharing_wal_fsyncs_total", "Explicit fsyncs issued by the decision log.", "counter", wm.Fsyncs)
		writeMetric("esharing_wal_truncations_total", "Snapshot-and-truncate cycles completed.", "counter", wm.Truncations)
		writeMetric("esharing_wal_size_bytes", "Current decision log file size.", "gauge", wm.Size)
		writeMetric("esharing_wal_failures_total", "Decision log writes that failed (server degraded).", "counter", walFailures)
		writeMetric("esharing_wal_replayed_records", "Records replayed from the log at startup.", "gauge", walReplayed)
		writeMetric("esharing_wal_replay_duration_seconds", "Startup recovery replay duration.", "gauge",
			float64(walReplayNanos)/1e9)
	}

	// Per-shard series carry a shard label; their sum over shards is the
	// matching unlabelled family above.
	writeShardMetric := func(name, help, typ string, value func(sh *shard, part *readSnapshot) any) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i, sh := range s.shards {
			fmt.Fprintf(&sb, "%s{shard=\"%d\"} %v\n", name, i, value(sh, v.parts[i]))
		}
	}
	writeShardMetric("esharing_shard_requests_total", "Trip requests served, by shard.", "counter",
		func(sh *shard, _ *readSnapshot) any { return sh.requests.Load() })
	writeShardMetric("esharing_shard_stations_opened_total", "Stations opened online, by shard.", "counter",
		func(sh *shard, _ *readSnapshot) any { return sh.opened.Load() })
	writeShardMetric("esharing_shard_walk_meters_total", "Cumulative rider walking distance, by shard.", "counter",
		func(sh *shard, _ *readSnapshot) any { return math.Float64frombits(sh.walkBits.Load()) })
	writeShardMetric("esharing_shard_stations", "Currently established stations, by shard.", "gauge",
		func(_ *shard, part *readSnapshot) any { return len(part.stations) })
	writeShardMetric("esharing_shard_requests_shed_total", "Placement requests shed with 429, by shard.", "counter",
		func(sh *shard, _ *readSnapshot) any { return sh.shed.Load() })
	writeShardMetric("esharing_shard_place_queue_depth", "Placement requests admitted and queued, by shard.", "gauge",
		func(sh *shard, _ *readSnapshot) any { return len(sh.queue) })
	if hasWAL {
		writeShardMetric("esharing_shard_wal_failures_total", "Decision log writes that failed, by shard.", "counter",
			func(sh *shard, _ *readSnapshot) any { return sh.walFailures.Load() })
	}

	s.writeErrorCounters(&sb)
	s.writeLatencyHistograms(&sb)

	fmt.Fprintf(&sb, "# HELP esharing_build_info Build metadata; always 1.\n# TYPE esharing_build_info gauge\n")
	fmt.Fprintf(&sb, "esharing_build_info{go_version=%q,algorithm=%q} 1\n", runtime.Version(), s.name)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}

// writeErrorCounters renders the esharing_request_errors_total family.
// Only nonzero series are emitted to keep scrapes small; the family
// header is always present so dashboards can reference it.
//
//esharing:hotpath
func (s *Server) writeErrorCounters(sb *strings.Builder) {
	sb.WriteString("# HELP esharing_request_errors_total Error responses by endpoint and kind.\n")
	sb.WriteString("# TYPE esharing_request_errors_total counter\n")
	var num [24]byte
	for ep := range s.endpoints {
		for k := 0; k < numKinds; k++ {
			if v := s.endpoints[ep].errs[k].Load(); v > 0 {
				sb.WriteString(errLinePrefixes[ep][k])
				sb.Write(strconv.AppendInt(num[:0], v, 10))
				sb.WriteByte('\n')
			}
		}
	}
}

// writeLatencyHistograms renders esharing_request_duration_seconds, one
// cumulative bucket series per instrumented endpoint.
//
//esharing:hotpath
func (s *Server) writeLatencyHistograms(sb *strings.Builder) {
	sb.WriteString("# HELP esharing_request_duration_seconds Request latency by endpoint.\n")
	sb.WriteString("# TYPE esharing_request_duration_seconds histogram\n")
	var num [32]byte
	for ep := range s.endpoints {
		h := &s.endpoints[ep].latency
		var cum int64
		for i := 0; i < numLatencyBuckets; i++ {
			cum += h.buckets[i].Load()
			sb.WriteString(histBucketPrefixes[ep][i])
			sb.Write(strconv.AppendInt(num[:0], cum, 10))
			sb.WriteByte('\n')
		}
		sb.WriteString(histSumPrefixes[ep])
		sb.Write(strconv.AppendFloat(num[:0], float64(h.sumNanos.Load())/1e9, 'g', -1, 64))
		sb.WriteByte('\n')
		sb.WriteString(histCountPrefixes[ep])
		sb.Write(strconv.AppendInt(num[:0], cum, 10))
		sb.WriteByte('\n')
	}
}

// formatBound renders a bucket bound the way Prometheus clients do
// (shortest float form: 0.0001, 0.25, 1, ...).
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

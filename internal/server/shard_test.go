package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// shardDests returns one destination per shard, dests[i] routing to
// shard i at the given precision, found by scanning a city-scale grid
// (one probe per planar cell).
func shardDests(t *testing.T, precision, shards int) []geo.Point {
	t.Helper()
	dests := make([]geo.Point, shards)
	seen := make([]bool, shards)
	found := 0
	for i := 0; i < 32 && found < shards; i++ {
		for j := 0; j < 32 && found < shards; j++ {
			p := geo.Pt(float64(i)*400, float64(j)*400)
			s := geo.ShardOf(p, precision, shards)
			if !seen[s] {
				seen[s] = true
				dests[s] = p
				found++
			}
		}
	}
	if found < shards {
		t.Fatalf("grid scan reached only %d/%d shards", found, shards)
	}
	return dests
}

// do serves one in-process request and returns status and body.
func do(t *testing.T, srv *Server, method, target, body string) (int, string) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func placeBody(t *testing.T, dest geo.Point) string {
	t.Helper()
	b, err := json.Marshal(PlaceRequest{Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(nil); err == nil {
		t.Error("empty placer list accepted")
	}
	meyerson, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded([]core.OnlinePlacer{meyerson, nil}); err == nil {
		t.Error("nil shard placer accepted")
	}
	if _, err := NewSharded([]core.OnlinePlacer{meyerson, newBlockingPlacer()}); err == nil {
		t.Error("mixed-algorithm shards accepted")
	}
}

// TestSingleShardBitIdenticalToPlacer: a one-shard server serves the
// placer's own decisions verbatim, and its aggregate lastSimilarityPct
// is Σ (rᵢ/R)·sᵢ = 1.0·s, so it must carry the placer's LastSimilarity
// bit for bit — before any request, at an out-of-distribution 0%, and
// at in-distribution figures — with the one-entry shards breakdown in
// agreement.
func TestSingleShardBitIdenticalToPlacer(t *testing.T) {
	srv, err := newSingle(newWALPlacer(t))
	if err != nil {
		t.Fatal(err)
	}
	ref := newWALPlacer(t)
	check := func(label string) float64 {
		t.Helper()
		_, body := do(t, srv, http.MethodGet, "/v1/stats", "")
		var st StatsResponse
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		want := math.Float64bits(ref.LastSimilarity())
		if st.LastSimilarity == nil || math.Float64bits(*st.LastSimilarity) != want {
			t.Fatalf("%s: placer similarity %v, stats body %s", label, ref.LastSimilarity(), body)
		}
		if len(st.Shards) != 1 || st.Shards[0].LastSimilarity == nil ||
			math.Float64bits(*st.Shards[0].LastSimilarity) != want {
			t.Fatalf("%s: placer similarity %v, stats body %s", label, ref.LastSimilarity(), body)
		}
		return ref.LastSimilarity()
	}
	check("before any request")

	// The window (TestEvery = WindowSize = 10) first fills with
	// destinations far outside the 2 km history square, which scores
	// 0%, then with in-distribution ones.
	far := make([]geo.Point, 10)
	for i := range far {
		far[i] = geo.Pt(50_000+float64(i)*100, 50_000)
	}
	sawZero, sawNonzero := false, false
	for i, dest := range append(far, walDests(40)...) {
		code, body := do(t, srv, http.MethodPost, "/v1/requests", placeBody(t, dest))
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, body)
		}
		var got PlaceResponse
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Place(dest)
		if err != nil {
			t.Fatal(err)
		}
		if got.Station != want.Station || got.StationIndex != want.StationIndex ||
			got.Opened != want.Opened || math.Float64bits(got.WalkMeters) != math.Float64bits(want.Walk) {
			t.Fatalf("request %d: server decision %+v, placer %+v", i, got, want)
		}
		switch sim := check(fmt.Sprintf("after request %d", i+1)); {
		case sim == 0:
			sawZero = true
		case i >= 10:
			sawNonzero = true
		}
	}
	if !sawZero || !sawNonzero {
		t.Fatalf("stream never reached both a 0%% and a nonzero figure (zero %v, nonzero %v)", sawZero, sawNonzero)
	}
}

// TestShardRoutingBoundariesDeterministic: destinations exactly on
// planar cell boundaries must route to one well-defined shard — the
// same one geo.ShardOf names — on every request.
func TestShardRoutingBoundariesDeterministic(t *testing.T) {
	const shards, precision = 4, 7
	placers := make([]core.OnlinePlacer, shards)
	for i := range placers {
		p, err := core.NewMeyerson(5000, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		placers[i] = p
	}
	srv, err := NewSharded(placers, WithShardPrecision(precision))
	if err != nil {
		t.Fatal(err)
	}

	dests := []geo.Point{
		geo.Pt(0, 0), // boundary at every bisection level
		geo.Pt(-0.001, 0),
		geo.Pt(geo.PlanarWorldExtent/4, 1000), // deep longitude boundary
		geo.Pt(400, 800),
		geo.Pt(1234.5, 678.9),
	}
	counts := make([]int64, shards)
	for _, dest := range dests {
		want := geo.ShardOf(dest, precision, shards)
		for rep := 0; rep < 3; rep++ {
			placeOK(t, srv, dest)
			counts[want]++
			for i, sh := range srv.shards {
				if got := sh.requests.Load(); got != counts[i] {
					t.Fatalf("dest %v rep %d: shard %d requests = %d, want %d (expected shard %d)",
						dest, rep, i, got, counts[i], want)
				}
			}
		}
	}
}

// TestMultiShardStormReconciles drives a 1-shard and a 4-shard server
// through deterministic saturation, a concurrent mixed storm and
// unmatched routes, then demands exact reconciliation per shard and
// fleet-wide: accepted + shed == sent on every shard, in /v1/stats, and
// in the shard-labelled /metrics families; 404/405 fallbacks still land
// in the epOther counters. The 1-shard run goes through the same
// {shard="0"} families and shards breakdown as any other.
func TestMultiShardStormReconciles(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			stormReconciles(t, shards)
		})
	}
}

func stormReconciles(t *testing.T, shards int) {
	const precision = 7
	blockers := make([]*blockingPlacer, shards)
	placers := make([]core.OnlinePlacer, shards)
	for i := range placers {
		blockers[i] = newBlockingPlacer()
		placers[i] = blockers[i]
	}
	// MaxInFlight == shards: each shard admits exactly one request.
	srv, err := NewSharded(placers, WithMaxInFlight(shards), WithShardPrecision(precision))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	dests := shardDests(t, precision, shards)
	post := func(dest geo.Point) (*http.Response, error) {
		body, err := json.Marshal(PlaceRequest{Dest: dest})
		if err != nil {
			t.Fatal(err)
		}
		return http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(string(body)))
	}

	// Phase 1: park one request inside every shard's placer, so every
	// admission slot is held.
	var holders sync.WaitGroup
	holderStatus := make([]int32, shards)
	for i := 0; i < shards; i++ {
		holders.Add(1)
		go func(i int) {
			defer holders.Done()
			resp, err := post(dests[i])
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			atomic.StoreInt32(&holderStatus[i], int32(resp.StatusCode))
		}(i)
		<-blockers[i].entered
	}

	// Deterministic shedding: with every slot held, each extra request
	// must shed instantly with the shard's own 429 message.
	const shedEach = 5
	for i := 0; i < shards; i++ {
		for k := 0; k < shedEach; k++ {
			resp, err := post(dests[i])
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("shard %d: saturated request got %d: %s", i, resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("shard %d: shed response lacks Retry-After", i)
			}
			if want := fmt.Sprintf("shard %d", i); !strings.Contains(string(body), want) {
				t.Errorf("shard %d: shed body %q does not name the shard", i, body)
			}
		}
	}

	// Reads stay lock-free while every decision lock is held.
	fams := scrape(t, ts.URL)
	if got := famValue(fams, "esharing_shards"); got != float64(shards) {
		t.Errorf("esharing_shards = %g, want %d", got, shards)
	}
	if got := famValue(fams, "esharing_place_queue_depth"); got != float64(shards) {
		t.Errorf("queue depth = %g, want %d (one held request per shard)", got, shards)
	}

	// Phase 2: release the placers; the held requests must complete.
	for _, b := range blockers {
		close(b.gate)
	}
	holders.Wait()
	for i, st := range holderStatus {
		if st != http.StatusOK {
			t.Fatalf("shard %d: held request finished with %d", i, st)
		}
	}

	// Phase 3: concurrent mixed storm across all shards plus unmatched
	// routes, tallying client-side per expected shard.
	ok := make([]atomic.Int64, shards)
	shed := make([]atomic.Int64, shards)
	sent := make([]atomic.Int64, shards)
	var unexpected atomic.Int64
	var wg sync.WaitGroup
	const writers, perWriter = 8, 24
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				i := (g*perWriter + k) % shards
				sent[i].Add(1)
				resp, err := post(dests[i])
				if err != nil {
					t.Error(err)
					return
				}
				_ = resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok[i].Add(1)
				case http.StatusTooManyRequests:
					shed[i].Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}(g)
	}
	const notFounds, badMethods = 3, 3
	for k := 0; k < notFounds; k++ {
		resp, err := http.Get(ts.URL + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
		}
	}
	for k := 0; k < badMethods; k++ {
		resp, err := http.Post(ts.URL+"/v1/stations", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /v1/stations = %d, want 405", resp.StatusCode)
		}
	}
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d requests returned neither 200 nor 429", unexpected.Load())
	}

	// Per-shard reconciliation against the shard counters.
	var totalOK, totalShed, totalSent int64
	for i, sh := range srv.shards {
		wantOK := ok[i].Load() + 1            // + the held phase-1 request
		wantShed := shed[i].Load() + shedEach // + the deterministic sheds
		wantSent := sent[i].Load() + 1 + shedEach
		if got := sh.requests.Load(); got != wantOK {
			t.Errorf("shard %d: requests = %d, want %d", i, got, wantOK)
		}
		if got := sh.shed.Load(); got != wantShed {
			t.Errorf("shard %d: shed = %d, want %d", i, got, wantShed)
		}
		if wantOK+wantShed != wantSent {
			t.Errorf("shard %d: accepted %d + shed %d != sent %d", i, wantOK, wantShed, wantSent)
		}
		totalOK += wantOK
		totalShed += wantShed
		totalSent += wantSent
	}

	// Fleet-wide reconciliation in /v1/stats, including the per-shard
	// breakdown.
	_, statsBody := do(t, srv, http.MethodGet, "/v1/stats", "")
	var st StatsResponse
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != totalOK || st.Shed != totalShed {
		t.Errorf("stats requests=%d shed=%d, want %d/%d", st.Requests, st.Shed, totalOK, totalShed)
	}
	if st.Requests+st.Shed != totalSent {
		t.Errorf("stats accepted %d + shed %d != sent %d", st.Requests, st.Shed, totalSent)
	}
	if len(st.Shards) != shards {
		t.Fatalf("stats shards breakdown has %d entries, want %d", len(st.Shards), shards)
	}
	for i, ss := range st.Shards {
		if ss.Shard != i || ss.Requests != srv.shards[i].requests.Load() || ss.Shed != srv.shards[i].shed.Load() {
			t.Errorf("stats shard %d entry %+v does not match counters", i, ss)
		}
		if ss.LastSimilarity != nil {
			t.Errorf("shard %d: blocking placer reports a similarity figure", i)
		}
	}
	if st.LastSimilarity != nil {
		t.Error("aggregate similarity present without an ESharing placer")
	}

	// The same books in /metrics: aggregates, shard-labelled series and
	// the epOther error kinds.
	fams = scrape(t, ts.URL)
	if got := counterValue(fams["esharing_requests_total"], nil); got != float64(totalOK) {
		t.Errorf("requests_total = %g, want %d", got, totalOK)
	}
	if got := counterValue(fams["esharing_requests_shed_total"], nil); got != float64(totalShed) {
		t.Errorf("shed_total = %g, want %d", got, totalShed)
	}
	for i, sh := range srv.shards {
		label := map[string]string{"shard": fmt.Sprintf("%d", i)}
		if got := counterValue(fams["esharing_shard_requests_total"], label); got != float64(sh.requests.Load()) {
			t.Errorf("shard_requests_total{shard=%d} = %g, want %d", i, got, sh.requests.Load())
		}
		if got := counterValue(fams["esharing_shard_requests_shed_total"], label); got != float64(sh.shed.Load()) {
			t.Errorf("shard_requests_shed_total{shard=%d} = %g, want %d", i, got, sh.shed.Load())
		}
	}
	if got := counterValue(fams["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "shed"}); got != float64(totalShed) {
		t.Errorf("place shed errors = %g, want %d", got, totalShed)
	}
	if got := counterValue(fams["esharing_request_errors_total"],
		map[string]string{"endpoint": "other", "kind": "not_found"}); got != notFounds {
		t.Errorf("other not_found errors = %g, want %d", got, notFounds)
	}
	if got := counterValue(fams["esharing_request_errors_total"],
		map[string]string{"endpoint": "other", "kind": "method_not_allowed"}); got != badMethods {
		t.Errorf("other method_not_allowed errors = %g, want %d", got, badMethods)
	}
	if got := counterValue(fams["esharing_request_errors_all_total"], nil); got != float64(totalShed+notFounds+badMethods) {
		t.Errorf("errors_all_total = %g, want %d", got, totalShed+notFounds+badMethods)
	}
}

// TestShardedStationsMergeDeterministic: /v1/stations must be the
// per-shard station sets concatenated in shard-index order, stable
// across repeated reads and equal to a fresh encoding of the placers'
// own station lists.
func TestShardedStationsMergeDeterministic(t *testing.T) {
	const shards, precision = 3, 7
	placers := make([]core.OnlinePlacer, shards)
	for i := range placers {
		// Opening cost 1: every distinct destination opens a station, so
		// each shard grows a recognisable, ordered station list.
		p, err := core.NewMeyerson(1, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < i+2; k++ {
			if _, err := p.Place(geo.Pt(float64(i)*10_000, float64(k)*500)); err != nil {
				t.Fatal(err)
			}
		}
		placers[i] = p
	}
	srv, err := NewSharded(placers, WithShardPrecision(precision))
	if err != nil {
		t.Fatal(err)
	}

	wantBody := func() string {
		var all []geo.Point
		for _, p := range placers {
			all = append(all, p.Stations()...)
		}
		b, err := json.Marshal(StationsResponse{Stations: all})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}

	code, first := do(t, srv, http.MethodGet, "/v1/stations", "")
	if code != http.StatusOK {
		t.Fatalf("stations: %d", code)
	}
	if first != wantBody() {
		t.Fatalf("merged stations != shard-order concatenation:\n got %s\nwant %s", first, wantBody())
	}
	if _, again := do(t, srv, http.MethodGet, "/v1/stations", ""); again != first {
		t.Fatal("repeated reads of an unchanged server differ")
	}

	// A placement that opens a station on one shard must appear in that
	// shard's segment of the merge, and the body must track the placers
	// exactly.
	dests := shardDests(t, precision, shards)
	placeOK(t, srv, dests[1])
	_, after := do(t, srv, http.MethodGet, "/v1/stations", "")
	if after != wantBody() {
		t.Fatalf("post-placement merge diverged:\n got %s\nwant %s", after, wantBody())
	}
	if after == first {
		t.Fatal("opening a station did not change the merged body")
	}
}

// TestShardedWALRecovery: a multi-shard server keeps one decision log
// per shard (wal/shard-<index>/), recovers every shard bit-identically,
// and a WAL failure on any single shard degrades /healthz.
func TestShardedWALRecovery(t *testing.T) {
	const shards, precision = 2, 7
	dir := t.TempDir()
	build := func() *Server {
		t.Helper()
		placers := make([]core.OnlinePlacer, shards)
		for i := range placers {
			placers[i] = newWALPlacer(t)
		}
		srv, err := NewSharded(placers, WithShardPrecision(precision), WithWAL(dir, 1, 8))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv := build()
	for _, d := range walDests(40) {
		placeOK(t, srv, d)
	}
	var perShard [shards]int64
	for i, sh := range srv.shards {
		perShard[i] = sh.requests.Load()
		if perShard[i] == 0 {
			t.Fatalf("shard %d served no requests; destinations did not spread", i)
		}
	}
	before := capture(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		log := filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "wal.log")
		if _, err := os.Stat(log); err != nil {
			t.Fatalf("shard %d decision log missing: %v", i, err)
		}
	}

	restored := build()
	defer restored.Close()
	sameServingState(t, capture(t, restored), before)
	var wantReplayed int64
	wantRestored := 0
	for i, sh := range restored.shards {
		if got := sh.requests.Load(); got != perShard[i] {
			t.Errorf("shard %d recovered %d requests, want %d", i, got, perShard[i])
		}
		// Snapshot cadence 8: each shard restores its last multiple of
		// 8 and replays the rest.
		wantReplayed += perShard[i] % 8
		if perShard[i] >= 8 {
			wantRestored++
		}
	}
	if replayed, rs := restored.WALRecovery(); replayed != wantReplayed || rs != wantRestored {
		t.Errorf("WALRecovery = (%d, %d), want (%d, %d)", replayed, rs, wantReplayed, wantRestored)
	}

	// Sabotage shard 1's log only: the next decision on that shard fails
	// to append and the whole instance reports degraded.
	if code, _ := do(t, restored, http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("recovered server unhealthy: %d", code)
	}
	sh := restored.shards[1]
	sh.decision <- struct{}{}
	sh.wal.Close()
	<-sh.decision
	dests := shardDests(t, precision, shards)
	placeOK(t, restored, dests[1])
	if code, body := do(t, restored, http.MethodGet, "/healthz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("one-shard WAL failure not degraded: %d %s", code, body)
	}
	// The healthy shard keeps serving.
	placeOK(t, restored, dests[0])
	if got := restored.shards[0].walFailures.Load(); got != 0 {
		t.Errorf("healthy shard counted %d WAL failures", got)
	}
	if got := sh.walFailures.Load(); got == 0 {
		t.Error("failed shard counted no WAL failures")
	}
}

// TestStatsSimilarityRequestWeighted pins the aggregate similarity of a
// multi-shard server: Σ (rᵢ/R)·sᵢ over the shards that report a figure,
// the unweighted mean while none has served a request, and absent when
// no shard reports one.
func TestStatsSimilarityRequestWeighted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sims   []float64 // NaN: the shard reports no figure
		reqs   []int64
		want   float64
		absent bool
	}{
		{name: "no requests: unweighted mean", sims: []float64{40, 90}, reqs: []int64{0, 0}, want: 65},
		{name: "weighted by requests", sims: []float64{40, 90}, reqs: []int64{1, 3}, want: 77.5},
		{name: "idle shard weighs nothing", sims: []float64{40, 90}, reqs: []int64{2, 0}, want: 40},
		{name: "shard without a figure skipped", sims: []float64{math.NaN(), 90}, reqs: []int64{7, 5}, want: 90},
		{name: "no figure anywhere", sims: []float64{math.NaN(), math.NaN()}, reqs: []int64{1, 1}, absent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewSharded([]core.OnlinePlacer{newWALPlacer(t), newWALPlacer(t)})
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range srv.shards {
				sim := tc.sims[i]
				sh.snap.Store(&readSnapshot{stations: sh.snap.Load().stations, lastSim: sim, hasSim: !math.IsNaN(sim)})
				sh.requests.Store(tc.reqs[i])
			}
			_, body := do(t, srv, http.MethodGet, "/v1/stats", "")
			var st StatsResponse
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatal(err)
			}
			if tc.absent {
				if st.LastSimilarity != nil {
					t.Fatalf("aggregate similarity present without any figure: %s", body)
				}
				return
			}
			if st.LastSimilarity == nil || *st.LastSimilarity != tc.want {
				t.Fatalf("aggregate similarity in %s, want %v", body, tc.want)
			}
		})
	}
}

// TestStatsZeroSimilarityExplicit pins the wire contract of the
// similarity figure: a shard whose last KS test scored 0% must
// serialise an explicit zero — never an omitted field — while a placer
// without a similarity figure omits the field entirely. (With the old
// plain-float omitempty tag the two cases were indistinguishable.)
func TestStatsZeroSimilarityExplicit(t *testing.T) {
	srv, err := newSingle(newWALPlacer(t))
	if err != nil {
		t.Fatal(err)
	}
	// Publish a genuine 0% figure, the value a fully out-of-distribution
	// window scores.
	sh := srv.shards[0]
	sh.snap.Store(&readSnapshot{stations: sh.snap.Load().stations, lastSim: 0, hasSim: true})
	code, body := do(t, srv, http.MethodGet, "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if !strings.Contains(body, `"lastSimilarityPct":0`) {
		t.Errorf("zero similarity not serialised explicitly: %s", body)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.LastSimilarity == nil || *st.LastSimilarity != 0 {
		t.Errorf("LastSimilarity = %v, want explicit 0", st.LastSimilarity)
	}

	meyerson, err := core.NewMeyerson(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newSingle(meyerson)
	if err != nil {
		t.Fatal(err)
	}
	if _, body := do(t, plain, http.MethodGet, "/v1/stats", ""); strings.Contains(body, "lastSimilarityPct") {
		t.Errorf("placer without a similarity figure serialised one: %s", body)
	}
}

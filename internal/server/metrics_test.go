package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
)

// --- exposition-format parser ------------------------------------------

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

type family struct {
	help, typ string
	samples   []sample
}

var labelRe = regexp.MustCompile(`(\w+)="([^"]*)"`)

// parseExposition parses the Prometheus text format strictly: every
// sample must belong to a family announced by HELP and TYPE lines, in
// that order, and every value must parse as a float.
func parseExposition(t *testing.T, text string) map[string]*family {
	t.Helper()
	families := map[string]*family{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			families[name] = &family{help: help}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without type: %q", ln+1, line)
			}
			f, seen := families[name]
			if !seen {
				t.Fatalf("line %d: TYPE before HELP for %s", ln+1, name)
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
				f.typ = typ
			default:
				t.Fatalf("line %d: invalid type %q", ln+1, typ)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unrecognised comment %q", ln+1, line)
		default:
			s, famName := parseSample(t, ln+1, line)
			f, seen := families[famName]
			if !seen || f.typ == "" {
				t.Fatalf("line %d: sample %q before HELP+TYPE of %s", ln+1, line, famName)
			}
			f.samples = append(f.samples, s)
		}
	}
	return families
}

// parseSample splits one sample line, returning the sample and the
// family it belongs to (histogram _bucket/_sum/_count samples belong to
// the base family).
func parseSample(t *testing.T, ln int, line string) (sample, string) {
	t.Helper()
	s := sample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		j := strings.IndexByte(line, '}')
		if j < i {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, m := range labelRe.FindAllStringSubmatch(line[i+1:j], -1) {
			s.labels[m[1]] = m[2]
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: sample without value: %q", ln, line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad value in %q: %v", ln, line, err)
	}
	s.value = v
	famName := s.name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(s.name, suffix); base != s.name {
			famName = base
		}
	}
	return s, famName
}

func scrape(t *testing.T, url string) map[string]*family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// checkHistogram validates bucket monotonicity and the +Inf/count/sum
// invariants for every labelled series of a histogram family.
func checkHistogram(t *testing.T, f *family) {
	t.Helper()
	if f.typ != "histogram" {
		t.Fatalf("family type %q, want histogram", f.typ)
	}
	type series struct {
		bounds []float64
		counts map[float64]float64
		inf    float64
		sum    float64
		count  float64
		hasInf bool
	}
	byEndpoint := map[string]*series{}
	get := func(ep string) *series {
		if byEndpoint[ep] == nil {
			byEndpoint[ep] = &series{counts: map[float64]float64{}}
		}
		return byEndpoint[ep]
	}
	for _, s := range f.samples {
		ep := s.labels["endpoint"]
		if ep == "" {
			t.Fatalf("histogram sample without endpoint label: %+v", s)
		}
		sr := get(ep)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le := s.labels["le"]
			if le == "+Inf" {
				sr.inf, sr.hasInf = s.value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("endpoint %s: bad le %q", ep, le)
			}
			sr.bounds = append(sr.bounds, bound)
			sr.counts[bound] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			sr.sum = s.value
		case strings.HasSuffix(s.name, "_count"):
			sr.count = s.value
		}
	}
	for ep, sr := range byEndpoint {
		if !sr.hasInf {
			t.Errorf("endpoint %s: no +Inf bucket", ep)
			continue
		}
		sort.Float64s(sr.bounds)
		prev := 0.0
		for _, b := range sr.bounds {
			if sr.counts[b] < prev {
				t.Errorf("endpoint %s: bucket le=%g count %g < previous %g (not monotone)",
					ep, b, sr.counts[b], prev)
			}
			prev = sr.counts[b]
		}
		if sr.inf < prev {
			t.Errorf("endpoint %s: +Inf bucket %g < last bound %g", ep, sr.inf, prev)
		}
		if sr.inf != sr.count {
			t.Errorf("endpoint %s: +Inf bucket %g != count %g", ep, sr.inf, sr.count)
		}
		if sr.sum < 0 {
			t.Errorf("endpoint %s: negative sum %g", ep, sr.sum)
		}
	}
}

// counterValue sums a family's samples matching the given labels.
func counterValue(f *family, want map[string]string) float64 {
	if f == nil {
		return 0
	}
	total := 0.0
	for _, s := range f.samples {
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

// --- exposition test ----------------------------------------------------

func TestMetricsExpositionFormat(t *testing.T) {
	ts, client := newTestServer(t)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := client.Place(ctx, geo.Pt(float64(i*700), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Produce one decode error so the error family has a sample.
	resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	families := scrape(t, ts.URL)
	for _, name := range []string{
		"esharing_requests_total", "esharing_stations_opened_total",
		"esharing_walk_meters_total", "esharing_stations",
		"esharing_requests_shed_total", "esharing_request_errors_all_total",
		"esharing_inflight_requests", "esharing_place_queue_depth",
		"esharing_place_queue_limit", "esharing_request_errors_total",
		"esharing_request_duration_seconds", "esharing_build_info",
	} {
		if families[name] == nil {
			t.Errorf("missing family %s", name)
		}
	}
	if f := families["esharing_requests_total"]; f != nil && counterValue(f, nil) != 4 {
		t.Errorf("requests_total = %g, want 4", counterValue(f, nil))
	}
	if got := counterValue(families["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "bad_request"}); got != 1 {
		t.Errorf("bad_request errors = %g, want 1", got)
	}
	checkHistogram(t, families["esharing_request_duration_seconds"])
	if f := families["esharing_build_info"]; f != nil {
		if len(f.samples) != 1 || f.samples[0].labels["algorithm"] != "meyerson" ||
			!strings.HasPrefix(f.samples[0].labels["go_version"], "go") {
			t.Errorf("build info samples: %+v", f.samples)
		}
	}
	// The place histogram must have observed the 4 OK + 1 failed request.
	if got := counterValue(families["esharing_request_duration_seconds"],
		map[string]string{"endpoint": "place", "le": "+Inf"}); got != 5 {
		t.Errorf("place +Inf bucket = %g, want 5", got)
	}
}

// --- backpressure -------------------------------------------------------

// blockingPlacer parks every Place call on gate so tests can hold the
// decision lock for as long as they like.
type blockingPlacer struct {
	gate    chan struct{}
	entered chan struct{} // receives one token per Place entry
	station []geo.Point
}

func newBlockingPlacer() *blockingPlacer {
	return &blockingPlacer{
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 1024),
		station: []geo.Point{geo.Pt(0, 0)},
	}
}

func (p *blockingPlacer) Place(dest geo.Point) (core.Decision, error) {
	p.entered <- struct{}{}
	<-p.gate
	return core.Decision{Station: p.station[0], Walk: dest.Dist(p.station[0])}, nil
}

func (p *blockingPlacer) Stations() []geo.Point { return p.station }
func (p *blockingPlacer) Name() string          { return "blocking" }

// TestShedLoadUnderSaturation saturates a MaxInFlight=2 server with a
// blocked placer: exactly 2 requests may be in flight, every other
// request must shed with 429 + Retry-After, scrapes during the storm
// must not block on the held decision lock, and afterwards
// accepted + shed == sent with exact counter reconciliation.
func TestShedLoadUnderSaturation(t *testing.T) {
	placer := newBlockingPlacer()
	srv, err := newSingle(placer, WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const sent = 20
	var oks, sheds, others atomic.Int64
	var retryAfterMissing atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < sent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"dest":{"x":%d,"y":1}}`, i)
			resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			switch resp.StatusCode {
			case http.StatusOK:
				oks.Add(1)
			case http.StatusTooManyRequests:
				sheds.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					retryAfterMissing.Add(1)
				}
			default:
				others.Add(1)
			}
		}(i)
	}

	// While the decision lock is held by a blocked Place, scrapes must
	// still complete; poll until all excess requests have been shed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		families := scrape(t, ts.URL)
		if counterValue(families["esharing_requests_shed_total"], nil) >= sent-2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed counter never reached %d", sent-2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(placer.gate) // release the two admitted requests
	wg.Wait()

	if oks.Load() != 2 || sheds.Load() != sent-2 || others.Load() != 0 {
		t.Fatalf("oks=%d sheds=%d others=%d, want 2/%d/0", oks.Load(), sheds.Load(), others.Load(), sent-2)
	}
	if retryAfterMissing.Load() != 0 {
		t.Errorf("%d shed responses lacked Retry-After", retryAfterMissing.Load())
	}

	families := scrape(t, ts.URL)
	if got := counterValue(families["esharing_requests_total"], nil); got != 2 {
		t.Errorf("requests_total = %g, want 2", got)
	}
	if got := counterValue(families["esharing_requests_shed_total"], nil); got != sent-2 {
		t.Errorf("shed_total = %g, want %d", got, sent-2)
	}
	if got := counterValue(families["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "shed"}); got != sent-2 {
		t.Errorf("shed error counter = %g, want %d", got, sent-2)
	}
	checkHistogram(t, families["esharing_request_duration_seconds"])

	// Exact reconciliation is also visible in /v1/stats.
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests+stats.Shed != sent {
		t.Errorf("accepted %d + shed %d != sent %d", stats.Requests, stats.Shed, sent)
	}
	if stats.Errors != stats.Shed {
		t.Errorf("stats errors = %d, want %d (sheds are the only errors)", stats.Errors, stats.Shed)
	}

	// Reconciliation sweep: drive every remaining error class —
	// including routes the mux itself rejects with 404/405, which used
	// to bypass the instrumentation entirely — then check the books
	// balance exactly: every error response a client saw lands in
	// exactly one kind counter, and the kind counters sum to the
	// aggregate error count in /v1/stats.
	expect := func(method, path, body string, wantStatus int) {
		t.Helper()
		var reader io.Reader
		if body != "" {
			reader = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, reader)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
	}
	expect(http.MethodPost, "/v1/requests", `{"dest":`, http.StatusBadRequest)
	expect(http.MethodPost, "/v1/requests", `{"dest":{"x":1e999,"y":0}}`, http.StatusBadRequest)
	expect(http.MethodGet, "/no/such/route", "", http.StatusNotFound)
	expect(http.MethodDelete, "/v1/stations", "", http.StatusMethodNotAllowed)
	// Tier 2 is not served (its fleet runs in-process): the fleet routes
	// are unmatched and answer the mux's 404.
	expect(http.MethodGet, "/v1/bikes", "", http.StatusNotFound)
	expect(http.MethodPost, "/v1/rides", `{"bikeId":1,"dest":{"x":0,"y":0}}`, http.StatusNotFound)
	expect(http.MethodPost, "/v1/charging-round", `{"alpha":0.4}`, http.StatusNotFound)

	families = scrape(t, ts.URL)
	errFam := families["esharing_request_errors_total"]
	for _, want := range []struct {
		endpoint, kind string
		value          float64
	}{
		{"place", "shed", sent - 2},
		{"place", "bad_request", 2},
		{"other", "not_found", 4},
		{"other", "method_not_allowed", 1},
	} {
		if got := counterValue(errFam, map[string]string{"endpoint": want.endpoint, "kind": want.kind}); got != want.value {
			t.Errorf("errors{endpoint=%q,kind=%q} = %g, want %g", want.endpoint, want.kind, got, want.value)
		}
	}
	stats, err = client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if kindSum := counterValue(errFam, nil); kindSum != float64(stats.Errors) {
		t.Errorf("sum of kind counters = %g, stats errors = %d; the two books must agree", kindSum, stats.Errors)
	}
	if got := counterValue(families["esharing_request_errors_all_total"], nil); got != float64(stats.Errors) {
		t.Errorf("errors_all_total = %g, stats errors = %d", got, stats.Errors)
	}
	if got := counterValue(errFam, map[string]string{"endpoint": "place", "kind": "shed"}); got != float64(stats.Shed) {
		t.Errorf("shed kind counter = %g, stats shed = %d", got, stats.Shed)
	}
	// The place-path identity the admission gate promises: every request
	// sent to POST /v1/requests is accepted, shed, canceled, or errored
	// — no response is dropped or double-counted.
	placeSent := int64(sent + 2) // storm plus the two bad-request probes
	canceled := int64(counterValue(errFam, map[string]string{"endpoint": "place", "kind": "canceled"}))
	placeErrored := int64(counterValue(errFam, map[string]string{"endpoint": "place"})) - stats.Shed - canceled
	if got := stats.Requests + stats.Shed + canceled + placeErrored; got != placeSent {
		t.Errorf("accepted %d + shed %d + canceled %d + errored %d = %d, want %d sent",
			stats.Requests, stats.Shed, canceled, placeErrored, got, placeSent)
	}
}

// TestQueuedRequestHonorsCancellation cancels a request parked in the
// admission queue: it must return promptly, free its queue slot for the
// next request, and be counted under kind="canceled".
func TestQueuedRequestHonorsCancellation(t *testing.T) {
	placer := newBlockingPlacer()
	srv, err := newSingle(placer, WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(ctx context.Context, x int) (int, error) {
		body := fmt.Sprintf(`{"dest":{"x":%d,"y":1}}`, x)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/requests", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			return 0, err
		}
		defer func() { _ = resp.Body.Close() }()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	results := make(chan int, 2)
	go func() { // r1: holds the decision lock inside Place
		code, err := post(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		results <- code
	}()
	<-placer.entered // r1 is inside Place

	ctx, cancel := context.WithCancel(context.Background())
	r2err := make(chan error, 1)
	go func() { // r2: parked in the admission queue
		_, err := post(ctx, 2)
		r2err <- err
	}()
	// Wait until r2 occupies the second queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		families := scrape(t, ts.URL)
		if counterValue(families["esharing_place_queue_depth"], nil) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-r2err; err == nil {
		t.Error("canceled queued request should surface an error to its client")
	}

	// The freed slot must admit a third request instead of shedding it.
	r3 := make(chan int, 1)
	go func() {
		code, err := post(context.Background(), 3)
		if err != nil {
			t.Error(err)
		}
		r3 <- code
	}()
	for {
		families := scrape(t, ts.URL)
		if counterValue(families["esharing_place_queue_depth"], nil) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("third request never reached the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(placer.gate)
	if code := <-results; code != http.StatusOK {
		t.Errorf("first request status %d", code)
	}
	if code := <-r3; code != http.StatusOK {
		t.Errorf("third request status %d (shed after a slot was freed?)", code)
	}

	families := scrape(t, ts.URL)
	if got := counterValue(families["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "canceled"}); got != 1 {
		t.Errorf("canceled error counter = %g, want 1", got)
	}
	if got := counterValue(families["esharing_requests_shed_total"], nil); got != 0 {
		t.Errorf("shed_total = %g, want 0", got)
	}
}

// --- failed-placement visibility ---------------------------------------

// failingPlacer rejects every placement.
type failingPlacer struct{}

func (failingPlacer) Place(geo.Point) (core.Decision, error) {
	return core.Decision{}, errors.New("no capacity")
}
func (failingPlacer) Stations() []geo.Point { return nil }
func (failingPlacer) Name() string          { return "failing" }

// TestFailedPlacementsAreCounted is the regression test for silent 422s:
// a failing placer must show up in /v1/stats errors and in the
// esharing_request_errors_total family, not report a healthy system.
func TestFailedPlacementsAreCounted(t *testing.T) {
	srv, err := newSingle(failingPlacer{})
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
	for i := 0; i < 3; i++ {
		if _, err := client.Place(ctx, geo.Pt(1, 2)); err == nil {
			t.Fatal("failing placer should error")
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 3 {
		t.Errorf("stats errors = %d, want 3", stats.Errors)
	}
	if stats.Requests != 0 {
		t.Errorf("stats requests = %d, want 0 (placements all failed)", stats.Requests)
	}
	families := scrape(t, ts.URL)
	if got := counterValue(families["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "unprocessable"}); got != 3 {
		t.Errorf("unprocessable errors = %g, want 3", got)
	}
}

// TestOversizedBodyRejected covers the http.MaxBytesReader cap.
func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	big := strings.Repeat(" ", maxBodyBytes+1024) + `{"dest":{"x":1,"y":2}}`
	resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	families := scrape(t, ts.URL)
	if got := counterValue(families["esharing_request_errors_total"],
		map[string]string{"endpoint": "place", "kind": "too_large"}); got != 1 {
		t.Errorf("too_large errors = %g, want 1", got)
	}
}

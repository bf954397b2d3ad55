package server

// Endpoint behavior beyond the conformance batch: plan checkpoint/resume
// across requests, the §7.2 explain views, admission shedding, metrics,
// health, the event stream, and the snapshot cache's LRU/singleflight
// mechanics.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func postPlan(t *testing.T, client *http.Client, url, body string) respRec {
	t.Helper()
	resp, err := client.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("post plan: %v", err)
		return respRec{status: -1}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read plan response: %v", err)
		return respRec{status: -1}
	}
	return respRec{status: resp.StatusCode, body: string(data)}
}

func decodePlan(t *testing.T, rec respRec) PlanResponse {
	t.Helper()
	if rec.status != http.StatusOK {
		t.Fatalf("plan status %d: %s", rec.status, rec.body)
	}
	var resp PlanResponse
	if err := json.Unmarshal([]byte(rec.body), &resp); err != nil {
		t.Fatalf("decode plan response: %v (%s)", err, rec.body)
	}
	return resp
}

// TestPlanOneShot runs a fig10 search to completion in one request and
// checks the verdict shape.
func TestPlanOneShot(t *testing.T) {
	_, ts := confServer(t, 4)
	body := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	resp := decodePlan(t, postPlan(t, ts.Client(), ts.URL, body))
	if !resp.Done {
		t.Fatalf("one-shot plan not done: %+v", resp)
	}
	if resp.Winner == "" || resp.Baseline == "" || resp.Score == nil || resp.BaselineScore == nil {
		t.Fatalf("incomplete final response: %+v", resp)
	}
	if resp.PlanID == "" || resp.Fingerprint == "" {
		t.Fatalf("missing identity: %+v", resp)
	}
	// Completion is idempotent: the same request replays the stored
	// final bytes.
	again := postPlan(t, ts.Client(), ts.URL, body)
	first := postPlan(t, ts.Client(), ts.URL, body)
	if again.body != first.body {
		t.Errorf("completed plan replay diverged")
	}
}

// TestPlanResumeAcrossRequests advances one level per request and must
// land on the identical winner the one-shot search finds — the planner
// checkpoint/resume determinism, surfaced through the API.
func TestPlanResumeAcrossRequests(t *testing.T) {
	_, oneShot := confServer(t, 4)
	oneBody := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	want := decodePlan(t, postPlan(t, oneShot.Client(), oneShot.URL, oneBody))

	_, stepped := confServer(t, 4)
	stepBody := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_levels":1}`, confSeed)
	var got PlanResponse
	var lastLevel = -1
	for i := 0; i < 64; i++ {
		got = decodePlan(t, postPlan(t, stepped.Client(), stepped.URL, stepBody))
		if got.Done {
			break
		}
		if got.Level <= lastLevel {
			t.Fatalf("plan made no progress: level %d after %d", got.Level, lastLevel)
		}
		lastLevel = got.Level
	}
	if !got.Done {
		t.Fatalf("stepped plan never finished")
	}
	if got.PlanID != want.PlanID {
		t.Errorf("plan IDs differ: stepped %s, one-shot %s", got.PlanID, want.PlanID)
	}
	if got.Winner != want.Winner || got.Baseline != want.Baseline || got.FromBaseline != want.FromBaseline {
		t.Errorf("stepped winner diverged:\nstepped:  %+v\none-shot: %+v", got, want)
	}
	if *got.Score != *want.Score || *got.BaselineScore != *want.BaselineScore {
		t.Errorf("stepped scores diverged:\nstepped:  %v / %v\none-shot: %v / %v",
			got.Score, got.BaselineScore, want.Score, want.BaselineScore)
	}
	if got.Level != want.Level {
		t.Errorf("stepped level %d, one-shot %d", got.Level, want.Level)
	}
}

// TestPlanConcurrentSamePlan fires identical to-completion requests at
// once; the plan entry serializes them and all get identical bytes.
func TestPlanConcurrentSamePlan(t *testing.T) {
	_, ts := confServer(t, 4)
	body := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	const n = 4
	recs := make([]respRec, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postPlan(t, ts.Client(), ts.URL, body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if recs[i].status != recs[0].status || recs[i].body != recs[0].body {
			t.Errorf("concurrent plan %d diverged:\n%s\nvs\n%s", i, recs[i].body, recs[0].body)
		}
	}
}

// TestPlanParamsShapeIdentity pins that search-shaping parameters are
// plan identity while pacing is not.
func TestPlanParamsShapeIdentity(t *testing.T) {
	_, ts := confServer(t, 4)
	a := decodePlan(t, postPlan(t, ts.Client(), ts.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_levels":1}`, confSeed)))
	b := decodePlan(t, postPlan(t, ts.Client(), ts.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_levels":2}`, confSeed)))
	if a.PlanID != b.PlanID {
		t.Errorf("pacing changed plan identity: %s vs %s", a.PlanID, b.PlanID)
	}
	c := decodePlan(t, postPlan(t, ts.Client(), ts.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d,"beam":2,"max_levels":1}`, confSeed)))
	if c.PlanID == a.PlanID {
		t.Errorf("beam override did not change plan identity")
	}
}

// TestPlanDeadlineCheckpoints: a plan cut off by its deadline answers
// 504, but the search state freezes server-side and later requests
// finish it — with the same winner a fresh uninterrupted server finds.
func TestPlanDeadlineCheckpoints(t *testing.T) {
	_, fresh := confServer(t, 4)
	want := decodePlan(t, postPlan(t, fresh.Client(), fresh.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)))

	_, ts := confServer(t, 4)
	// Warm the base so the 1ms deadline lands mid-search, not mid-build.
	postPlan(t, ts.Client(), ts.URL, fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_levels":1}`, confSeed))
	cut := postPlan(t, ts.Client(), ts.URL, fmt.Sprintf(`{"scenario":"fig10","seed":%d,"timeout_ms":1}`, confSeed))
	if cut.status != http.StatusGatewayTimeout && cut.status != http.StatusOK {
		t.Fatalf("deadline plan: status %d: %s", cut.status, cut.body)
	}
	var got PlanResponse
	for i := 0; i < 64; i++ {
		got = decodePlan(t, postPlan(t, ts.Client(), ts.URL,
			fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_levels":4}`, confSeed)))
		if got.Done {
			break
		}
	}
	if !got.Done {
		t.Fatalf("plan never finished after deadline cut")
	}
	if got.Winner != want.Winner || *got.Score != *want.Score {
		t.Errorf("post-deadline winner diverged: %s (%v) vs %s (%v)",
			got.Winner, got.Score, want.Winner, want.Score)
	}
}

// TestExplainViews exercises the three §7.2 renderings plus the error
// paths.
func TestExplainViews(t *testing.T) {
	_, ts := confServer(t, 4)
	get := func(query string) respRec {
		resp, err := ts.Client().Get(ts.URL + "/v1/explain?" + query)
		if err != nil {
			t.Fatalf("get explain: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return respRec{status: resp.StatusCode, body: string(data)}
	}
	base := fmt.Sprintf("scenario=fig10&seed=%d&device=fa.0", confSeed)

	for _, view := range []string{"rpas", "fib"} {
		rec := get(base + "&view=" + view)
		if rec.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", view, rec.status, rec.body)
		}
		var resp ExplainResponse
		if err := json.Unmarshal([]byte(rec.body), &resp); err != nil {
			t.Fatalf("%s: decode: %v", view, err)
		}
		if resp.View != view || resp.Device != "fa.0" || resp.Output == "" {
			t.Errorf("%s: bad response: %+v", view, resp)
		}
		if !strings.Contains(resp.Output, "fa.0") {
			t.Errorf("%s: output does not mention the device:\n%s", view, resp.Output)
		}
	}

	rec := get(base + "&view=route&prefix=0.0.0.0%2F0")
	if rec.status != http.StatusOK {
		t.Fatalf("route: status %d: %s", rec.status, rec.body)
	}

	for name, query := range map[string]string{
		"bad-view":       base + "&view=nope",
		"missing-prefix": base + "&view=route",
		"bad-prefix":     base + "&view=route&prefix=zz",
		"bad-seed":       "scenario=fig10&seed=x&device=fa.0&view=rpas",
		"prefix-on-rpas": base + "&view=rpas&prefix=0.0.0.0%2F0",
		"no-device":      fmt.Sprintf("scenario=fig10&seed=%d&view=rpas", confSeed),
	} {
		if rec := get(query); rec.status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.status, rec.body)
		}
	}
	if rec := get(fmt.Sprintf("scenario=fig10&seed=%d&device=ghost&view=rpas", confSeed)); rec.status != http.StatusNotFound {
		t.Errorf("ghost device: status %d, want 404", rec.status)
	}
}

// TestAdmissionSheds429 saturates a width-1 pool with a depth-1 queue;
// overflow must shed with 429 and a Retry-After header.
func TestAdmissionSheds429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, DefaultTimeout: time.Minute})
	srv.testHookEvalDelay = func(*WhatIfRequest) { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Warm the cache so every request spends its time in evaluation.
	postWhatIf(t, ts.Client(), ts.URL, fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed))

	const n = 8
	type shot struct {
		rec        respRec
		retryAfter string
	}
	shots := make([]shot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"no_memo":true}`, confSeed)
			resp, err := ts.Client().Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			shots[i] = shot{respRec{resp.StatusCode, string(data)}, resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	shed := 0
	for _, s := range shots {
		switch s.rec.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			if s.retryAfter == "" {
				t.Errorf("429 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d: %s", s.rec.status, s.rec.body)
		}
	}
	if shed == 0 {
		t.Errorf("no request shed by a width-1/depth-1 pool under %d concurrent posts", n)
	}
	m := fetchMetrics(t, ts)
	if m.RejectedQueueFull == 0 {
		t.Errorf("metrics did not count queue-full rejections")
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) *MetricsSnapshot {
	t.Helper()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return m
}

// TestLatencyFollowsRecentTraffic pins the latency windows: a daemon that
// served a full window of fast requests and then a full window of slow ones
// must report the slow ones, not freeze on its first observations — to
// within a bucket's width (2^(1/latSub)), in memory that does not grow.
func TestLatencyFollowsRecentTraffic(t *testing.T) {
	m := newServerMetrics()
	read := func() EndpointMetrics {
		eps, _, _, _ := m.snapshot()
		return eps[0]
	}
	near := func(got, want float64) bool { return got > want/1.1 && got < want*1.1 }
	if empty := (&endpointStats{}).percentile(50); empty != 0 {
		t.Fatalf("empty endpoint reports p50 %v", empty)
	}
	for i := 0; i < latencyWindow; i++ {
		m.observe("whatif", 200, time.Millisecond)
	}
	if fast := read(); !near(fast.P50Ms, 1) || fast.MaxMs != 1 {
		t.Fatalf("fast window: %+v", fast)
	}
	for i := 0; i < latencyWindow; i++ {
		m.observe("whatif", 200, 50*time.Millisecond)
	}
	slow := read()
	if !near(slow.P50Ms, 50) || !near(slow.P99Ms, 50) || slow.MaxMs != 50 {
		t.Errorf("percentiles did not follow recent traffic: %+v", slow)
	}
	if slow.Requests != 2*latencyWindow {
		t.Errorf("requests %d", slow.Requests)
	}
	// Out-of-range latencies clamp to the end buckets instead of indexing past them.
	m.observe("whatif", 200, 0)
	m.observe("whatif", 200, 1000*time.Hour)
	if got := read(); got.MaxMs != float64(1000*time.Hour/time.Millisecond) {
		t.Errorf("max after a huge latency: %+v", got)
	}
}

// TestMetricsAndHealth checks the observability endpoints account for
// real traffic.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := confServer(t, 4)
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	hz, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status %q, want ok", hz.Status)
	}

	req := &WhatIfRequest{Scenario: "fig10", Seed: confSeed}
	if _, err := c.WhatIf(context.Background(), req); err != nil {
		t.Fatalf("whatif: %v", err)
	}
	if _, err := c.WhatIf(context.Background(), req); err != nil {
		t.Fatalf("whatif: %v", err)
	}

	m := fetchMetrics(t, ts)
	var wi *EndpointMetrics
	for i := range m.Endpoints {
		if m.Endpoints[i].Endpoint == "whatif" {
			wi = &m.Endpoints[i]
		}
	}
	if wi == nil || wi.Requests < 2 {
		t.Fatalf("whatif endpoint not accounted: %+v", m.Endpoints)
	}
	if m.SnapshotCacheMisses != 1 || m.SnapshotCacheHits < 1 {
		t.Errorf("cache accounting off: hits=%d misses=%d", m.SnapshotCacheHits, m.SnapshotCacheMisses)
	}
	if m.MemoHits < 1 {
		t.Errorf("second identical request did not hit the memo")
	}
	if m.Draining {
		t.Errorf("metrics report draining on a live server")
	}

	// Client surfaces API errors typed.
	_, err = c.WhatIf(context.Background(), &WhatIfRequest{Scenario: "nope"})
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("client error not typed: %v", err)
	}

	// Method mismatches are 405s.
	resp, err := ts.Client().Get(ts.URL + "/v1/whatif")
	if err != nil {
		t.Fatalf("get whatif: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/whatif: status %d, want 405", resp.StatusCode)
	}
}

func asAPIError(err error, target **APIError) bool {
	for err != nil {
		if e, ok := err.(*APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestEventsStream subscribes to /v1/events and must observe telemetry
// from a what-if evaluation, tagged with its request source.
func TestEventsStream(t *testing.T) {
	_, ts := confServer(t, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	// The opening comment confirms the subscription is registered before
	// the what-if fires.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no stream-open comment: %q", sc.Text())
	}

	go postWhatIf(t, ts.Client(), ts.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d,"no_memo":true}`, confSeed))

	// telemetry.Kind marshals as a name but has no UnmarshalJSON, so
	// decode into a wire-shaped struct.
	var ev struct {
		Source string `json:"source"`
		Event  struct {
			Kind   string `json:"kind"`
			Device string `json:"device"`
		} `json:"event"`
	}
	found := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode stream event: %v (%s)", err, line)
		}
		found = true
		break
	}
	if !found {
		t.Fatalf("no event observed on the stream")
	}
	wantSource := fmt.Sprintf("whatif fig10/%d", confSeed)
	if ev.Source != wantSource {
		t.Errorf("event source %q, want %q", ev.Source, wantSource)
	}
	cancel()
}

// TestBroadcasterDropsWhenFull pins the backpressure rule: a stuffed
// subscriber loses events instead of stalling the publisher.
func TestBroadcasterDropsWhenFull(t *testing.T) {
	b := newBroadcaster(2)
	_, ch := b.subscribe()
	for i := 0; i < 5; i++ {
		b.publish(StreamEvent{Source: "x"})
	}
	subs, sent, dropped := b.stats()
	if subs != 1 || sent != 2 || dropped != 3 {
		t.Errorf("stats = %d/%d/%d, want 1 sub, 2 sent, 3 dropped", subs, sent, dropped)
	}
	b.close()
	if _, ok := <-ch; ok {
		// Two buffered events drain first; the close lands after.
		for range ch {
		}
	}
	// Subscribing after close yields a closed channel immediately.
	_, ch2 := b.subscribe()
	if _, ok := <-ch2; ok {
		t.Errorf("post-close subscription delivered an event")
	}
}

// TestSnapCacheLRUAndSingleflight drives the cache directly: concurrent
// cold misses share one build, capacity evicts the oldest base.
func TestSnapCacheLRUAndSingleflight(t *testing.T) {
	c := newSnapCache(1)
	const n = 8
	entries := make([]*cacheEntry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.get("fig10", confSeed)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("singleflight built more than one entry")
		}
	}
	_, misses, _, size := c.stats()
	if misses != 1 || size != 1 {
		t.Errorf("after concurrent cold gets: misses=%d size=%d, want 1/1", misses, size)
	}

	if _, err := c.get("fig10", confSeed+1); err != nil {
		t.Fatalf("second base: %v", err)
	}
	hits, misses, evictions, size := c.stats()
	if evictions != 1 || size != 1 {
		t.Errorf("capacity-1 cache: evictions=%d size=%d, want 1/1", evictions, size)
	}
	// The first base was evicted: a re-get is a miss again.
	if _, err := c.get("fig10", confSeed); err != nil {
		t.Fatalf("re-get: %v", err)
	}
	if h2, m2, _, _ := c.stats(); h2 != hits || m2 != misses+1 {
		t.Errorf("re-get after eviction: hits %d→%d misses %d→%d", hits, h2, misses, m2)
	}

	// Unknown scenarios propagate the setup error and cache nothing.
	if _, err := c.get("nope", 1); err == nil {
		t.Errorf("unknown scenario did not error")
	}
}

// TestClientSurface drives every typed client method against a live
// daemon — the same surface ExampleClient_WhatIf documents, plus the
// error rendering.
func TestClientSurface(t *testing.T) {
	srv, ts := confServer(t, 4)
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()

	if _, err := client.WhatIf(ctx, &WhatIfRequest{Scenario: "fig10", Seed: confSeed}); err != nil {
		t.Fatalf("client what-if: %v", err)
	}
	plan, err := client.Plan(ctx, &PlanRequest{Scenario: "fig10", Seed: confSeed})
	if err != nil {
		t.Fatalf("client plan: %v", err)
	}
	if !plan.Done || plan.Winner == "" {
		t.Errorf("client plan incomplete: %+v", plan)
	}
	exp, err := client.Explain(ctx, &ExplainRequest{Scenario: "fig10", Seed: confSeed, Device: "fa.0", View: "route", Prefix: "0.0.0.0/0"})
	if err != nil {
		t.Fatalf("client explain: %v", err)
	}
	if exp.Output == "" {
		t.Errorf("client explain: empty output")
	}
	if _, err := client.Metrics(ctx); err != nil {
		t.Fatalf("client metrics: %v", err)
	}
	if h, err := client.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("client healthz: %v %v", h, err)
	}

	_, err = client.WhatIf(ctx, &WhatIfRequest{Scenario: "ghost"})
	var apiErr *APIError
	if !asAPIError(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if got := apiErr.Error(); !strings.Contains(got, "HTTP 400") || !strings.Contains(got, "unknown scenario") {
		t.Errorf("error rendering: %q", got)
	}
	if srv.Draining() {
		t.Errorf("daemon reports draining while serving")
	}
}

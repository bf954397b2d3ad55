package server

// The concurrency conformance suite — the contract centraliumd serves
// under: N concurrent requests against one snapshot produce responses
// byte-identical to the same requests issued serially, at every worker
// width, including deadline expiries and mid-flight drain. Run under
// -race in CI (the server job), where the suite doubles as a race probe
// of the whole fork/serve path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"centralium/internal/planner"
	"centralium/internal/qualify"
)

// confSeed keeps every conformance request on one shared base snapshot.
const confSeed = 7

// wireReq is one raw request of the conformance batch.
type wireReq struct {
	name string
	body string
}

// respRec is one observed response.
type respRec struct {
	status int
	body   string
}

// fig10Schedules derives deterministic schedule texts from the scenario
// itself (device IDs come from the topology, not hard-coded strings).
func fig10Schedules(t *testing.T) (baseline, allAtOnce, reversed string) {
	t.Helper()
	snap, p, err := planner.ScenarioSetup("fig10", confSeed)
	if err != nil {
		t.Fatalf("scenario setup: %v", err)
	}
	s, err := planner.NewSearch(snap, p)
	if err != nil {
		t.Fatalf("new search: %v", err)
	}
	base := s.BaselineSchedule()
	baseline = base.String()

	devs := base.Devices()
	parts := make([]string, len(devs))
	for i, d := range devs {
		parts[i] = string(d)
	}
	allAtOnce = strings.Join(parts, ",")

	rev := base.Clone()
	for i, j := 0, len(rev.Steps)-1; i < j; i, j = i+1, j-1 {
		rev.Steps[i], rev.Steps[j] = rev.Steps[j], rev.Steps[i]
	}
	reversed = rev.String()
	return baseline, allAtOnce, reversed
}

// conformanceRequests is the mixed batch: good schedules, invariant
// variants, memo-bypass, malformed requests, and a deadline expiry.
func conformanceRequests(t *testing.T) []wireReq {
	t.Helper()
	baseline, allAtOnce, reversed := fig10Schedules(t)
	mk := func(fields string) string {
		return fmt.Sprintf(`{"scenario":"fig10","seed":%d%s}`, confSeed, fields)
	}
	return []wireReq{
		{"baseline", mk(``)},
		{"explicit-baseline", mk(`,"schedule":` + quote(baseline))},
		{"all-at-once", mk(`,"schedule":` + quote(allAtOnce))},
		{"reversed", mk(`,"schedule":` + quote(reversed))},
		{"funnel-bound", mk(`,"max_funnel_share":0.95`)},
		{"funnel-strict-reversed", mk(`,"schedule":` + quote(reversed) + `,"max_funnel_share":0.55`)},
		{"link-utilization", mk(`,"max_link_utilization":50`)},
		{"no-memo", mk(`,"no_memo":true`)},
		{"repeat-explicit-baseline", mk(`,"schedule":` + quote(baseline))},
		{"bad-scenario", fmt.Sprintf(`{"scenario":"nope","seed":%d}`, confSeed)},
		{"bad-unknown-field", mk(`,"bogus":1`)},
		{"bad-sample-every", mk(`,"sample_every":3`)},
		{"bad-step-option", mk(`,"schedule":` + quote(allAtOnce+"!bare"))},
		{"bad-partial-schedule", mk(`,"schedule":` + quote(firstDevice(allAtOnce)))},
		{"deadline-expiry", mk(`,"no_memo":true,"timeout_ms":1`)},
	}
}

func quote(s string) string {
	data, _ := json.Marshal(s)
	return string(data)
}

func firstDevice(allAtOnce string) string {
	return strings.SplitN(allAtOnce, ",", 2)[0]
}

// postWhatIf issues one request. Transport failures report through
// t.Errorf (safe off the test goroutine) and return status -1.
func postWhatIf(t *testing.T, client *http.Client, url, body string) respRec {
	t.Helper()
	resp, err := client.Post(url+"/v1/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("post: %v", err)
		return respRec{status: -1}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read response: %v", err)
		return respRec{status: -1}
	}
	return respRec{status: resp.StatusCode, body: string(data)}
}

// confServer starts a fresh daemon for one pass. Every pass gets its own
// instance so caches and memos never leak bytes between passes. The
// fig10 base is small enough to qualify in under a millisecond, so
// deadline-carrying requests get a deterministic evaluation delay —
// the 504 path must not depend on the host being slow.
func confServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: workers, QueueDepth: 64, DefaultTimeout: 2 * time.Minute})
	srv.testHookEvalDelay = func(req *WhatIfRequest) {
		if req.TimeoutMs > 0 && req.TimeoutMs < 1000 {
			time.Sleep(time.Duration(req.TimeoutMs)*time.Millisecond + 100*time.Millisecond)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// runSerial issues the batch one request at a time.
func runSerial(t *testing.T, reqs []wireReq, workers int) []respRec {
	t.Helper()
	_, ts := confServer(t, workers)
	out := make([]respRec, len(reqs))
	for i, r := range reqs {
		out[i] = postWhatIf(t, ts.Client(), ts.URL, r.body)
	}
	return out
}

// runConcurrent fires the whole batch at once.
func runConcurrent(t *testing.T, reqs []wireReq, workers int) []respRec {
	t.Helper()
	_, ts := confServer(t, workers)
	out := make([]respRec, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			out[i] = postWhatIf(t, ts.Client(), ts.URL, body)
		}(i, r.body)
	}
	wg.Wait()
	return out
}

// TestConformanceConcurrentVsSerial is the headline property: for every
// request in the batch, the concurrent response is byte-identical to the
// serial one, at worker widths 1, 4, and 16.
func TestConformanceConcurrentVsSerial(t *testing.T) {
	reqs := conformanceRequests(t)
	ref := runSerial(t, reqs, 4)

	// Sanity on the reference itself before comparing anything to it.
	expectStatus := map[string]int{
		"bad-scenario":         http.StatusBadRequest,
		"bad-unknown-field":    http.StatusBadRequest,
		"bad-sample-every":     http.StatusBadRequest,
		"bad-step-option":      http.StatusBadRequest,
		"bad-partial-schedule": http.StatusBadRequest,
		"deadline-expiry":      http.StatusGatewayTimeout,
	}
	for i, r := range reqs {
		want, ok := expectStatus[r.name]
		if !ok {
			want = http.StatusOK
		}
		if ref[i].status != want {
			t.Fatalf("serial %s: status %d, want %d (body %s)", r.name, ref[i].status, want, ref[i].body)
		}
	}

	for _, width := range []int{1, 4, 16} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			got := runConcurrent(t, reqs, width)
			for i, r := range reqs {
				if got[i].status != ref[i].status {
					t.Errorf("%s: concurrent status %d, serial %d", r.name, got[i].status, ref[i].status)
					continue
				}
				if got[i].body != ref[i].body {
					t.Errorf("%s: concurrent body diverged from serial\nconcurrent: %s\nserial:     %s",
						r.name, got[i].body, ref[i].body)
				}
			}
		})
	}
}

// TestWhatIfForksOnce pins what dropping the second fork must not move: for
// every request of the batch that qualifies, the served body (qualify.Run on
// the request's own fork) equals the body the pre-deployment gate
// (qualify.Gate, which forks its network again) produces for the same spec.
func TestWhatIfForksOnce(t *testing.T) {
	reqs := conformanceRequests(t)
	served := runSerial(t, reqs, 4)
	srv, _ := confServer(t, 1)
	for i, r := range reqs {
		if served[i].status != http.StatusOK {
			continue
		}
		req, err := DecodeWhatIfRequest([]byte(r.body))
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		entry, err := srv.cache.get(req.Scenario, req.Seed)
		if err != nil {
			t.Fatalf("%s: base: %v", r.name, err)
		}
		fork, err := entry.fork()
		if err != nil {
			t.Fatalf("%s: fork: %v", r.name, err)
		}
		var rep *qualify.Report
		spec := whatIfSpec(req, entry, fork, "gate")
		spec.OnReport = func(r *qualify.Report) { rep = r }
		qualify.Gate(spec).Check() // the verdict arrives through OnReport
		if rep == nil {
			t.Fatalf("%s: gate produced no report", r.name)
		}
		if gated := string(whatIfResult(req, entry, rep).body); gated != served[i].body {
			t.Errorf("%s: served body differs from the gate's\nserved: %s\ngate:   %s", r.name, served[i].body, gated)
		}
	}
}

// TestConformanceSerialWidthInvariance pins that worker width itself
// never shows up in response bytes: serial batches at widths 1 and 16
// match the width-4 serial reference.
func TestConformanceSerialWidthInvariance(t *testing.T) {
	reqs := conformanceRequests(t)
	ref := runSerial(t, reqs, 4)
	for _, width := range []int{1, 16} {
		got := runSerial(t, reqs, width)
		for i, r := range reqs {
			if got[i].status != ref[i].status || got[i].body != ref[i].body {
				t.Errorf("width %d, %s: serial response differs from width-4 serial", width, r.name)
			}
		}
	}
}

// TestConformancePlanWidthInvariance: a plan search sizes its evaluation
// pool from GOMAXPROCS, and the width never shows up in response bytes —
// every scenario's final /v1/plan body, search stats included, is the same
// at GOMAXPROCS 1 (the inline pool) and 4, paced or in one post.
func TestConformancePlanWidthInvariance(t *testing.T) {
	var bodies []string
	for _, name := range planner.ScenarioNames() {
		bodies = append(bodies, fmt.Sprintf(`{"scenario":%q,"seed":%d}`, name, confSeed))
	}
	bodies = append(bodies, fmt.Sprintf(`{"scenario":"fig10","seed":%d,"search_bare":true,"batch_sizes":[1,2],"min_next_hops":[50]}`, confSeed))
	run := func(width int, paced bool) []string {
		prev := runtime.GOMAXPROCS(width)
		defer runtime.GOMAXPROCS(prev)
		_, ts := confServer(t, 2)
		var out []string
		for _, body := range bodies {
			if paced {
				step := strings.TrimSuffix(body, "}") + `,"max_levels":1}`
				postPlan(t, ts.Client(), ts.URL, step)
			}
			rec := postPlan(t, ts.Client(), ts.URL, body)
			if rec.status != http.StatusOK || !decodePlan(t, rec).Done {
				t.Fatalf("GOMAXPROCS %d: %s: status %d, not done: %s", width, body, rec.status, rec.body)
			}
			out = append(out, rec.body)
		}
		return out
	}
	ref := run(1, false)
	for _, c := range []struct {
		width int
		paced bool
	}{{4, false}, {4, true}, {1, true}} {
		for i, got := range run(c.width, c.paced) {
			if got != ref[i] {
				t.Errorf("GOMAXPROCS %d (paced %v), %s: final body differs from GOMAXPROCS 1's\n got: %s\nwant: %s",
					c.width, c.paced, bodies[i], got, ref[i])
			}
		}
	}
}

// TestConformanceMidFlightDrain holds the drain contract under load:
// every response during a drain is either byte-identical to the serial
// reference (the request was in flight and ran to completion) or the
// canonical 503 drain rejection — nothing in between, and Drain returns.
func TestConformanceMidFlightDrain(t *testing.T) {
	reqs := conformanceRequests(t)
	// Drop the deadline-expiry request: its orphan is exercised by
	// TestDrainWaitsForOrphanedDeadline without racing the drain window.
	var live []wireReq
	for _, r := range reqs {
		if r.name != "deadline-expiry" {
			live = append(live, r)
		}
	}
	ref := runSerial(t, live, 4)

	srv, ts := confServer(t, 4)
	// Stretch every evaluation so the drain demonstrably lands mid-
	// flight: admitted requests are still evaluating when the flag sets,
	// and must run to completion with reference bytes. The delay changes
	// wall-clock only, never response bytes.
	srv.testHookEvalDelay = func(*WhatIfRequest) { time.Sleep(20 * time.Millisecond) }
	// Warm the base so in-flight requests are mid-evaluation (not all
	// queued behind one cold cache build) when the drain lands.
	postWhatIf(t, ts.Client(), ts.URL, live[0].body)

	got := make([]respRec, len(live))
	var wg sync.WaitGroup
	for i, r := range live {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			got[i] = postWhatIf(t, ts.Client(), ts.URL, body)
		}(i, r.body)
	}
	time.Sleep(2 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	drainBody := string(encodeBody(&ErrorResponse{Error: "server draining"}))
	completed, rejected := 0, 0
	for i, r := range live {
		switch {
		case got[i].status == ref[i].status && got[i].body == ref[i].body:
			completed++
		case got[i].status == http.StatusServiceUnavailable && got[i].body == drainBody:
			rejected++
		default:
			t.Errorf("%s: response is neither the serial reference nor the drain rejection: %d %s",
				r.name, got[i].status, got[i].body)
		}
	}
	t.Logf("mid-flight drain: %d completed, %d rejected", completed, rejected)

	// The daemon is now fully drained: new work is rejected, health says
	// draining.
	after := postWhatIf(t, ts.Client(), ts.URL, live[0].body)
	if after.status != http.StatusServiceUnavailable || after.body != drainBody {
		t.Errorf("post-drain request: %d %s, want 503 drain rejection", after.status, after.body)
	}
	hz, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: %d, want 503", hz.StatusCode)
	}
}

// TestDrainWaitsForOrphanedDeadline pins the deadline/drain interplay:
// a request whose client already got its 504 still holds the in-flight
// count, so Drain blocks until the orphaned evaluation finishes — and
// does finish, rather than hanging.
func TestDrainWaitsForOrphanedDeadline(t *testing.T) {
	srv, ts := confServer(t, 1)
	body := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"no_memo":true,"timeout_ms":1}`, confSeed)
	rec := postWhatIf(t, ts.Client(), ts.URL, body)
	if rec.status != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504 (body %s)", rec.status, rec.body)
	}
	wantBody := string(encodeBody(&ErrorResponse{Error: "deadline exceeded"}))
	if rec.body != wantBody {
		t.Fatalf("deadline body %q, want %q", rec.body, wantBody)
	}
	// The orphan may still be evaluating; Drain must outlive it.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain after orphaned deadline: %v", err)
	}
}

// TestConformanceMemoTransparency double-checks the memo can never
// change bytes: the same request with and without no_memo produces
// identical 200 bodies.
func TestConformanceMemoTransparency(t *testing.T) {
	_, ts := confServer(t, 4)
	with := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	without := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"no_memo":true}`, confSeed)
	a := postWhatIf(t, ts.Client(), ts.URL, with)    // computes, memoizes
	b := postWhatIf(t, ts.Client(), ts.URL, with)    // memo hit
	c := postWhatIf(t, ts.Client(), ts.URL, without) // recomputes
	if a.status != http.StatusOK {
		t.Fatalf("status %d: %s", a.status, a.body)
	}
	if a.body != b.body {
		t.Errorf("memo hit returned different bytes")
	}
	// no_memo responses differ only in the echoed request flag... they
	// must not: the flag is not part of the response schema.
	if !bytes.Equal([]byte(a.body), []byte(c.body)) {
		t.Errorf("no_memo recompute returned different bytes:\n%s\n%s", a.body, c.body)
	}
}

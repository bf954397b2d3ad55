package server

// The endpoint implementations. Each computes a (status, body) result
// from an isolated fork of a cached base snapshot; the admission and
// deadline machinery around them lives in server.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"strconv"

	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/qualify"
	"centralium/internal/rpadebug"
	"centralium/internal/topo"
)

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 1 << 20

// readBody buffers the request body (bounded). Called on the serving
// goroutine only, before any evaluation goroutine exists.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read request body: %w", err)
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("request body larger than %d bytes", maxBodyBytes)
	}
	return data, nil
}

// lenientDecode unmarshals ignoring unknown fields — the deadline peek
// must never reject what the handler would accept.
func lenientDecode(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

// --- POST /v1/whatif --------------------------------------------------------

func (s *Server) whatif(ctx context.Context, ar *apiRequest) result {
	req, err := DecodeWhatIfRequest(ar.body)
	if err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	if err := req.Validate(); err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	entry, err := s.cache.get(req.Scenario, req.Seed)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "build scenario base: %v", err)
	}
	key := req.memoKey(entry.Fingerprint)
	if !req.NoMemo {
		if body, ok := s.memo.get(key); ok {
			return result{status: http.StatusOK, body: body}
		}
	}
	res := s.runWhatIf(req, entry)
	if res.status == http.StatusOK && !req.NoMemo {
		s.memo.put(key, res.body)
	}
	return res
}

// runWhatIf forks the base once and qualifies the requested schedule on
// that fork with qualify.Run — the qualification a live rollout's
// pre-deployment gate (qualify.Gate) would run on its own fork of the live
// network; the request already owns its fork, so there is no second one.
func (s *Server) runWhatIf(req *WhatIfRequest, entry *cacheEntry) result {
	if s.testHookEvalDelay != nil {
		s.testHookEvalDelay(req)
	}
	fork, err := entry.fork()
	if err != nil {
		return errorResult(http.StatusInternalServerError, "fork base: %v", err)
	}
	label := fmt.Sprintf("%s/%d", req.Scenario, req.Seed)
	spec := whatIfSpec(req, entry, fork, label)
	if spec.Schedule != nil {
		// The schedule must cover the intent: the rollout would fail
		// anyway, but the codec can say why precisely.
		if err := coversIntent(spec.Schedule, entry.Params); err != nil {
			return errorResult(http.StatusBadRequest, "%v", err)
		}
	}
	fork.AddTap(s.events.tap("whatif " + label))
	rep, err := qualify.Run(spec)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "what-if: %v", err)
	}
	return whatIfResult(req, entry, rep)
}

// whatIfSpec is the qualification a what-if request asks for, on net.
func whatIfSpec(req *WhatIfRequest, entry *cacheEntry, net *fabric.Network, label string) qualify.Spec {
	invariants := []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops()}
	if req.MaxFunnelShare > 0 {
		invariants = append(invariants, qualify.FunnelBound(entry.Params.Watch, req.MaxFunnelShare))
	}
	if req.MaxLinkUtilization > 0 {
		invariants = append(invariants, qualify.MaxLinkUtilization(req.MaxLinkUtilization))
	}
	return qualify.Spec{
		Name:           label,
		Net:            net,
		Intent:         entry.Params.Intent,
		Compiled:       entry.Params.Compiled,
		OriginAltitude: entry.Params.OriginAltitude,
		Workload:       entry.Params.Demands,
		Invariants:     invariants,
		Schedule:       req.Waves(),
	}
}

// whatIfResult renders a qualification report as the response body.
func whatIfResult(req *WhatIfRequest, entry *cacheEntry, rep *qualify.Report) result {
	resp := &WhatIfResponse{
		Fingerprint: entry.Fingerprint,
		Scenario:    req.Scenario,
		Seed:        req.Seed,
		Schedule:    req.Schedule,
		Passed:      rep.Passed,
		Events:      rep.Events,
	}
	for _, v := range rep.Violations {
		resp.Violations = append(resp.Violations, GateViolation{
			Invariant: v.Invariant,
			Transient: v.Transient,
			AtNs:      int64(v.At),
			Detail:    v.Detail,
		})
	}
	return jsonResult(http.StatusOK, resp)
}

// coversIntent checks an explicit wave schedule deploys exactly the
// intent's devices. Error messages name devices deterministically
// (sorted / schedule order, never map order) — they are response bytes,
// and the conformance suite compares those byte for byte.
func coversIntent(waves [][]topo.DeviceID, p planner.Params) error {
	scheduled := make(map[topo.DeviceID]bool)
	for _, w := range waves {
		for _, d := range w {
			scheduled[d] = true
		}
	}
	missing := make([]topo.DeviceID, 0)
	for d := range p.Intent {
		if !scheduled[d] {
			missing = append(missing, d)
		}
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return fmt.Errorf("schedule misses %d intent device(s), first %s", len(missing), missing[0])
	}
	for _, w := range waves {
		for _, d := range w {
			if _, ok := p.Intent[d]; !ok {
				return fmt.Errorf("schedule device %s is not in the scenario intent", d)
			}
		}
	}
	return nil
}

// --- POST /v1/plan ----------------------------------------------------------

func (s *Server) plan(ctx context.Context, ar *apiRequest) result {
	req, err := DecodePlanRequest(ar.body)
	if err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	if err := req.Validate(); err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	entry, err := s.cache.get(req.Scenario, req.Seed)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "build scenario base: %v", err)
	}
	id := req.planID(entry.Fingerprint)
	// With a store, every completed level journals its manifest and the
	// states it made into the plan's own WAL records, and the post commits
	// them in one batch before it answers: a crash mid-request resumes from
	// the previous post's last level.
	return drive(s, s.plans, id, jobSteps[planner.Search]{
		start: func(rec *jobRecord) (*planner.Search, error) {
			p := entry.Params
			if req.Beam > 0 {
				p.Beam = req.Beam
			}
			if req.RandomCands != 0 {
				p.RandomCands = req.RandomCands
			}
			if len(req.BatchSizes) > 0 {
				p.BatchSizes = append([]int(nil), req.BatchSizes...)
			}
			if len(req.MinNextHops) > 0 {
				p.MinNextHops = append([]int(nil), req.MinNextHops...)
			}
			if req.SearchBare {
				p.SearchBare = true
			}
			return planner.NewSearchWith(entry.Snap, p, s.persist.objects(entry, rec))
		},
		resume: func(rec *jobRecord) (*planner.Search, error) {
			return planner.ResumeSearchWith(rec.checkpoint, s.persist.objects(entry, rec))
		},
		advance: func(search *planner.Search, rec *jobRecord) (result, bool, error) {
			// A deadline stops the search between levels: it keeps its
			// progress and the next request continues from there. The client
			// already has its 504.
			done, err := search.Drive(ctx, req.MaxLevels, s.persist.journal(planJob, id, rec))
			if err != nil {
				return result{}, false, err
			}
			resp := &PlanResponse{
				PlanID:      id,
				Fingerprint: entry.Fingerprint,
				Done:        done,
				Level:       search.Level(),
				Stats:       search.SearchStats(),
			}
			if !done {
				return jsonResult(http.StatusOK, resp), false, nil
			}
			res, err := search.Result()
			if err != nil {
				return errorResult(http.StatusInternalServerError, "finish plan %s: %v", id, err), false, nil
			}
			resp.Stats = search.SearchStats()
			resp.Winner = res.Winner.String()
			resp.Score = &res.Score
			resp.Baseline = res.Baseline.String()
			resp.BaselineScore = &res.BaselineScore
			resp.FromBaseline = res.FromBaseline
			return jsonResult(http.StatusOK, resp), true, nil
		},
	})
}

// --- GET /v1/explain --------------------------------------------------------

func (s *Server) explain(ctx context.Context, ar *apiRequest) result {
	q := ar.query
	seed := int64(0)
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return errorResult(http.StatusBadRequest, "bad seed %q", raw)
		}
		seed = v
	}
	req := &ExplainRequest{
		Scenario: q.Get("scenario"),
		Seed:     seed,
		Device:   q.Get("device"),
		View:     q.Get("view"),
		Prefix:   q.Get("prefix"),
	}
	if req.View == "" {
		req.View = "rpas"
	}
	if err := req.Validate(); err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	entry, err := s.cache.get(req.Scenario, req.Seed)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "build scenario base: %v", err)
	}
	fork, err := entry.fork()
	if err != nil {
		return errorResult(http.StatusInternalServerError, "fork base: %v", err)
	}
	dev := topo.DeviceID(req.Device)
	if fork.Node(dev) == nil {
		return errorResult(http.StatusNotFound, "no such device %q in scenario %s", req.Device, req.Scenario)
	}
	var output string
	switch req.View {
	case "rpas":
		output = rpadebug.ListRPAs(fork, dev)
	case "route":
		prefix, err := netip.ParsePrefix(req.Prefix)
		if err != nil {
			return errorResult(http.StatusBadRequest, "bad prefix %q: %v", req.Prefix, err)
		}
		output = rpadebug.ExplainRoute(fork, dev, prefix)
	case "fib":
		output = rpadebug.DumpFIB(fork, dev)
	}
	return jsonResult(http.StatusOK, &ExplainResponse{
		Fingerprint: entry.Fingerprint,
		Scenario:    req.Scenario,
		Seed:        req.Seed,
		Device:      req.Device,
		View:        req.View,
		Output:      output,
	})
}

// --- GET /v1/metrics, /v1/healthz, /v1/events -------------------------------

func (s *Server) metricsHandler(ctx context.Context, ar *apiRequest) result {
	snap := &MetricsSnapshot{Draining: s.draining.Load()}
	snap.Endpoints, snap.RejectedQueueFull, snap.RejectedDraining, snap.DeadlineExpired = s.metrics.snapshot()
	snap.SnapshotCacheHits, snap.SnapshotCacheMisses, snap.SnapshotCacheEvictions, snap.SnapshotCacheSize = s.cache.stats()
	snap.MemoHits, snap.MemoMisses, snap.MemoSize = s.memo.stats()
	snap.EventSubscribers, snap.EventsSent, snap.EventsDropped = s.events.stats()
	snap.GuardWaves, snap.GuardRetries, snap.GuardRollbacks, snap.GuardQuarantines,
		snap.GuardCompleted, snap.GuardAborted, snap.GuardPaused = s.metrics.guardSnapshot()
	if s.persist != nil {
		snap.StoreEnabled = true
		snap.StoreAppends, snap.StoreFsyncs, snap.StoreCompactions, snap.StoreErrors, snap.StoreSegments = s.persist.stats()
		snap.StoreBytes, snap.StorePlanCheckpointBytes, snap.StorePlanStateBytes = s.persist.bytesAppended()
		snap.StoreLiveStates = s.persist.liveStates()
		snap.UnresumablePlans, snap.UnresumableExecs = s.plans.unresumable.Load(), s.execs.unresumable.Load()
		snap.RecoveredPlans, snap.RecoveredExecs, snap.RecoveredTruncatedBytes =
			s.recovered.Plans, s.recovered.Execs, s.recovered.TruncatedBytes
	}
	return jsonResult(http.StatusOK, snap)
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}

func (s *Server) healthz(ctx context.Context, ar *apiRequest) result {
	if s.draining.Load() {
		return jsonResult(http.StatusServiceUnavailable, &HealthResponse{Status: "draining"})
	}
	return jsonResult(http.StatusOK, &HealthResponse{Status: "ok"})
}

// eventsHandler streams the telemetry broadcast as server-sent events.
// It bypasses the worker pool (a stream holds its connection open for
// its whole life) but respects drain: the broadcaster closes on drain,
// which ends every stream.
func (s *Server) eventsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		write(w, errorResult(http.StatusMethodNotAllowed, "method %s not allowed (use GET)", r.Method))
		return
	}
	if s.draining.Load() {
		write(w, errorResult(http.StatusServiceUnavailable, "server draining"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		write(w, errorResult(http.StatusInternalServerError, "streaming unsupported"))
		return
	}
	id, ch := s.events.subscribe()
	defer s.events.unsubscribe(id)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // drained
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

package server

// The daemon core: configuration, the bounded worker pool, admission
// control, per-request deadlines, and graceful drain. Handlers compute
// (status, body) pairs; everything about *when* and *whether* they run
// lives here.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/store"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrently-evaluating requests (default 4).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the pool
	// itself; admission past Workers+QueueDepth sheds with 429
	// (default 64).
	QueueDepth int
	// CacheSize bounds the warm snapshot cache (default 8 bases).
	CacheSize int
	// MemoSize bounds the (fingerprint, request) response memo
	// (default 256 bodies).
	MemoSize int
	// PlanStoreSize bounds resumable plan searches held server-side
	// (default 32).
	PlanStoreSize int
	// DefaultTimeout is the per-request deadline when the request body
	// does not carry timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// EventBuffer is the per-subscriber /v1/events channel depth
	// (default 256).
	EventBuffer int
	// Store, when set, is the daemon's durable state plane: the progress
	// and final responses of plans and executions persist through it, and
	// Open recovers them on boot. Scenario bases and memoized what-if
	// bodies do not: a restarted daemon rebuilds them on demand.
	// The caller owns the store's lifecycle (close it after Drain).
	Store *store.Store
	// CompactSegments triggers checkpoint-style WAL compaction once the
	// log exceeds this many segments (default 8).
	CompactSegments int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.MemoSize <= 0 {
		c.MemoSize = 256
	}
	if c.PlanStoreSize <= 0 {
		c.PlanStoreSize = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.CompactSegments <= 0 {
		c.CompactSegments = 8
	}
	return c
}

// Server is one centraliumd instance. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg     Config
	cache   *snapCache
	memo    *respMemo
	plans   *jobStore[planner.Search]
	execs   *jobStore[guard.Execution]
	events  *broadcaster
	metrics *serverMetrics

	// persist is the durable state plane (nil without a Config.Store);
	// recovered is what boot-time recovery replayed, frozen after Open.
	persist   *persistor
	recovered recoveryStats

	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool
	drainMu  sync.RWMutex
	inflight sync.WaitGroup

	mux *http.ServeMux

	// testHookEvalDelay, when set (tests only), runs at the start of
	// every what-if evaluation — the deterministic stand-in for "the
	// evaluation takes longer than the request's deadline" on scenario
	// bases small enough to qualify in under a millisecond.
	testHookEvalDelay func(*WhatIfRequest)
	// testHookResume, when set (tests only), runs before every resume drive
	// makes, under the job's entry lock.
	testHookResume func()
}

// New builds a daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newSnapCache(cfg.CacheSize),
		memo:    newRespMemo(cfg.MemoSize),
		plans:   newJobStore[planner.Search](planJob, "plan", "plan", cfg.PlanStoreSize),
		execs:   newJobStore[guard.Execution](execJob, "execution", "execute", cfg.PlanStoreSize),
		events:  newBroadcaster(cfg.EventBuffer),
		metrics: newServerMetrics(),
		sem:     make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
	}
	if cfg.Store != nil {
		s.persist = &persistor{st: cfg.Store, compactEvery: cfg.CompactSegments,
			jobs: [jobKinds]jobTable{planJob: s.plans, execJob: s.execs}}
	}
	s.mux.HandleFunc("/v1/whatif", s.pooled("whatif", http.MethodPost, s.whatif))
	s.mux.HandleFunc("/v1/plan", s.pooled("plan", http.MethodPost, s.plan))
	s.mux.HandleFunc("/v1/execute", s.pooled("execute", http.MethodPost, s.execute))
	s.mux.HandleFunc("/v1/explain", s.pooled("explain", http.MethodGet, s.explain))
	s.mux.HandleFunc("/v1/metrics", s.direct("metrics", http.MethodGet, s.metricsHandler))
	s.mux.HandleFunc("/v1/healthz", s.direct("healthz", http.MethodGet, s.healthz))
	s.mux.HandleFunc("/v1/events", s.eventsHandler)
	return s
}

// Open builds a daemon and, when the configuration carries a store,
// recovers its durable state: in-flight plans and executions resume by
// ID, and finished ones answer with their recorded final bytes. It decodes
// no snapshot: the first request for a (scenario, seed) rebuilds its base
// cold, to the same fingerprint. This is the entry point for a durable
// daemon; New alone persists but does not recover.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if s.persist != nil {
		rs, err := s.persist.recover()
		if err != nil {
			return nil, fmt.Errorf("server: recover durable state: %w", err)
		}
		s.recovered = rs
	}
	return s, nil
}

// Recovered reports what boot-time recovery replayed (zero without a
// store or when built with New).
func (s *Server) Recovered() (plans, execs, truncatedBytes int) {
	return s.recovered.Plans, s.recovered.Execs, s.recovered.TruncatedBytes
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the daemon has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the daemon down: new work is rejected with 503
// from this point on, in-flight requests (including orphaned
// evaluations whose clients already got a 504) run to completion, and
// the event stream closes. Returns ctx.Err if the context expires while
// work is still in flight.
func (s *Server) Drain(ctx context.Context) error {
	// The write lock pairs with the read-locked admission step in
	// servePooled: once this critical section ends, every admitted
	// request is already in the in-flight count and no new ones join —
	// Wait never races an Add.
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.events.close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// result is one computed response.
type result struct {
	status int
	body   []byte
}

// jsonResult renders a response value.
func jsonResult(status int, v any) result {
	return result{status: status, body: encodeBody(v)}
}

// errorResult renders the canonical error body.
func errorResult(status int, format string, args ...any) result {
	return jsonResult(status, &ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// apiRequest is everything a handler may read: the buffered body and
// the parsed query, captured on the serving goroutine before any
// evaluation goroutine starts. Handlers never touch *http.Request —
// an orphaned evaluation (client already answered 504) would otherwise
// race net/http finishing the connection.
type apiRequest struct {
	body  []byte
	query url.Values
}

// handlerFunc computes one response. The context carries the request
// deadline; handlers that poll it (plan) stop early, handlers that
// don't (whatif) simply finish after the client has its 504 — the
// worker slot is held either way.
type handlerFunc func(ctx context.Context, req *apiRequest) result

// pooled wraps a handler with the full admission path: method check,
// drain rejection, queue-depth shedding, worker-pool acquisition, and
// the deadline race between the evaluation and the request's timeout.
func (s *Server) pooled(name, method string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := s.servePooled(name, method, h, w, r)
		s.metrics.observe(name, status, time.Since(start))
	}
}

func (s *Server) servePooled(name, method string, h handlerFunc, w http.ResponseWriter, r *http.Request) int {
	if r.Method != method {
		return write(w, errorResult(http.StatusMethodNotAllowed, "method %s not allowed (use %s)", r.Method, method))
	}
	if s.draining.Load() {
		s.metrics.addDraining()
		return write(w, errorResult(http.StatusServiceUnavailable, "server draining"))
	}
	// Admission: the queued count includes running requests, so the
	// high-water mark is pool width plus queue depth.
	q := s.queued.Add(1)
	defer s.queued.Add(-1)
	if int(q) > s.cfg.Workers+s.cfg.QueueDepth {
		s.metrics.addQueueFull()
		w.Header().Set("Retry-After", "1")
		return write(w, errorResult(http.StatusTooManyRequests, "queue full (%d in flight)", s.cfg.Workers+s.cfg.QueueDepth))
	}

	// Buffer the request up front: after this point nothing reads
	// *http.Request, so an evaluation that outlives its deadline cannot
	// race the connection teardown.
	req := &apiRequest{query: r.URL.Query()}
	if r.Method == http.MethodPost {
		data, err := readBody(r)
		if err != nil {
			return write(w, errorResult(http.StatusBadRequest, "%v", err))
		}
		req.body = data
	}

	timeout := s.cfg.DefaultTimeout
	if ms := peekTimeoutMs(req.body); ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Wait for a worker slot; the deadline covers queueing time too.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.metrics.addDeadline()
		return write(w, errorResult(http.StatusGatewayTimeout, "deadline exceeded"))
	}

	// Joining the in-flight group and re-checking the drain flag is one
	// atomic step against Drain (read lock vs. Drain's write lock): a
	// request either joins before the flag flips — and Drain waits for
	// it — or observes the flag and bows out.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		<-s.sem
		s.metrics.addDraining()
		return write(w, errorResult(http.StatusServiceUnavailable, "server draining"))
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()

	// Run the evaluation on its own goroutine so an expired deadline
	// answers the client immediately. The slot and the in-flight count
	// release only when the evaluation actually finishes — an orphaned
	// request cannot break the pool bound, and Drain waits for it.
	done := make(chan result, 1)
	go func() {
		defer s.inflight.Done()
		defer func() { <-s.sem }()
		done <- h(ctx, req)
	}()
	select {
	case res := <-done:
		return write(w, res)
	case <-ctx.Done():
		s.metrics.addDeadline()
		return write(w, errorResult(http.StatusGatewayTimeout, "deadline exceeded"))
	}
}

// direct wraps the cheap read-only endpoints that bypass the pool.
func (s *Server) direct(name, method string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var status int
		if r.Method != method {
			status = write(w, errorResult(http.StatusMethodNotAllowed, "method %s not allowed (use %s)", r.Method, method))
		} else {
			status = write(w, h(r.Context(), &apiRequest{query: r.URL.Query()}))
		}
		s.metrics.observe(name, status, time.Since(start))
	}
}

// write sends a computed result and reports its status.
func write(w http.ResponseWriter, res result) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
	w.WriteHeader(res.status)
	w.Write(res.body)
	return res.status
}

// peekTimeoutMs peeks the buffered body's timeout override without
// rejecting anything the handler would accept.
func peekTimeoutMs(body []byte) int64 {
	if len(body) == 0 {
		return 0
	}
	var peek struct {
		TimeoutMs int64 `json:"timeout_ms"`
	}
	if err := lenientDecode(body, &peek); err != nil {
		return 0
	}
	if peek.TimeoutMs < 0 || peek.TimeoutMs > maxTimeoutMs {
		return 0
	}
	return peek.TimeoutMs
}

package server

// The /v1/metrics counters: per-endpoint request/latency accounting plus
// cache, memo, admission, and event-stream instrumentation. Latencies
// are wall-clock and appear only here — never in an API response body,
// which keeps the conformance property (byte-identical serial vs
// concurrent responses) trivially safe from timing.

import (
	"math"
	"sort"
	"sync"
	"time"

	"centralium/internal/guard"
)

// Latencies are kept as counts in fixed log-spaced buckets — latSub per
// octave from 1µs up, so a reported percentile is within 2^(1/latSub) (9%)
// of the true one — in two windows of latencyWindow observations: the one
// filling and the one before it. Percentiles and the maximum are read over
// both, so they follow the last latencyWindow..2×latencyWindow requests in
// O(1) memory (2 KB an endpoint), however long the daemon lives.
const (
	latencyWindow = 4096
	latSub        = 8
	latBuckets    = 32 * latSub
)

type latencyCounts struct {
	buckets [latBuckets]uint32
	n       int
	maxMs   float64
}

type endpointStats struct {
	requests  int64
	errors    int64
	cur, prev latencyCounts
}

// latBucket is the bucket holding d: floor(latSub·log2(µs)), clamped.
func latBucket(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	return min(int(math.Log2(us)*latSub), latBuckets-1)
}

// record counts one latency, starting a new window when this one is full.
func (es *endpointStats) record(d time.Duration) {
	es.cur.buckets[latBucket(d)]++
	es.cur.n++
	es.cur.maxMs = max(es.cur.maxMs, float64(d)/float64(time.Millisecond))
	if es.cur.n == latencyWindow {
		es.prev, es.cur = es.cur, latencyCounts{}
	}
}

// percentile is the geometric middle, in milliseconds, of the bucket
// holding the p-th percentile of both windows (0 when nothing is recorded).
func (es *endpointStats) percentile(p float64) float64 {
	rank := int(p / 100 * float64(es.cur.n+es.prev.n-1))
	for i := range es.cur.buckets {
		rank -= int(es.cur.buckets[i] + es.prev.buckets[i])
		if rank < 0 {
			return math.Exp2((float64(i)+0.5)/latSub) / 1000
		}
	}
	return 0
}

type serverMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats

	rejectedQueueFull int64
	rejectedDraining  int64
	deadlineExpired   int64

	// Guard counters: state-machine edges observed across every guarded
	// execution this daemon drove.
	guardWaves       int64
	guardRetries     int64
	guardRollbacks   int64
	guardQuarantines int64
	guardCompleted   int64
	guardAborted     int64
	guardPaused      int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{endpoints: make(map[string]*endpointStats)}
}

// observe records one finished request. Any status >= 400 counts as an
// error for the endpoint (including load-shed 429/503s).
func (m *serverMetrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es, ok := m.endpoints[endpoint]
	if !ok {
		es = &endpointStats{}
		m.endpoints[endpoint] = es
	}
	es.record(d)
	es.requests++
	if status >= 400 {
		es.errors++
	}
}

func (m *serverMetrics) addQueueFull() {
	m.mu.Lock()
	m.rejectedQueueFull++
	m.mu.Unlock()
}

func (m *serverMetrics) addDraining() {
	m.mu.Lock()
	m.rejectedDraining++
	m.mu.Unlock()
}

func (m *serverMetrics) addDeadline() {
	m.mu.Lock()
	m.deadlineExpired++
	m.mu.Unlock()
}

// observeGuard counts one guard state-machine edge.
func (m *serverMetrics) observeGuard(tr guard.Transition) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch tr.State {
	case guard.StateRunning:
		if tr.Attempt == 0 {
			m.guardWaves++
		}
	case guard.StateRetrying:
		m.guardRetries++
	case guard.StateRolledBack:
		m.guardRollbacks++
	case guard.StateQuarantined:
		m.guardQuarantines++
	case guard.StateCompleted:
		m.guardCompleted++
	case guard.StateAborted:
		m.guardAborted++
	case guard.StatePaused:
		m.guardPaused++
	}
}

func (m *serverMetrics) guardSnapshot() (waves, retries, rollbacks, quarantines, completed, aborted, paused int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.guardWaves, m.guardRetries, m.guardRollbacks, m.guardQuarantines,
		m.guardCompleted, m.guardAborted, m.guardPaused
}

// EndpointMetrics is one endpoint's block in the /v1/metrics snapshot.
type EndpointMetrics struct {
	Endpoint string  `json:"endpoint"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// MetricsSnapshot is the GET /v1/metrics body.
type MetricsSnapshot struct {
	Endpoints []EndpointMetrics `json:"endpoints"`

	SnapshotCacheHits      int64 `json:"snapshot_cache_hits"`
	SnapshotCacheMisses    int64 `json:"snapshot_cache_misses"`
	SnapshotCacheEvictions int64 `json:"snapshot_cache_evictions"`
	SnapshotCacheSize      int   `json:"snapshot_cache_size"`

	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	MemoSize   int   `json:"memo_size"`

	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	DeadlineExpired   int64 `json:"deadline_expired"`

	EventSubscribers int   `json:"event_subscribers"`
	EventsSent       int64 `json:"events_sent"`
	EventsDropped    int64 `json:"events_dropped"`

	// Guard counters: POST /v1/execute state-machine accounting.
	GuardWaves       int64 `json:"guard_waves"`
	GuardRetries     int64 `json:"guard_retries"`
	GuardRollbacks   int64 `json:"guard_rollbacks"`
	GuardQuarantines int64 `json:"guard_quarantines"`
	GuardCompleted   int64 `json:"guard_completed"`
	GuardAborted     int64 `json:"guard_aborted"`
	GuardPaused      int64 `json:"guard_paused"`

	// Durability counters (zero when the daemon runs without a store).
	StoreEnabled bool `json:"store_enabled"`
	// StoreAppends counts batches: everything one post journaled, with its
	// final, is one. StoreFsyncs counts the fsyncs behind the log's appends
	// and compactions' syncs, and the object store's (a file's and its
	// directory's per object written).
	StoreAppends     int64 `json:"store_appends"`
	StoreFsyncs      int64 `json:"store_fsyncs"`
	StoreCompactions int64 `json:"store_compactions"`
	StoreErrors      int64 `json:"store_errors"`
	StoreSegments    int   `json:"store_segments"`
	// StoreBytes is the payload bytes behind StoreAppends (frame headers
	// and compaction rewrites excluded); StorePlanCheckpointBytes the plan
	// checkpoints' share of it, manifests only, and StorePlanStateBytes the
	// share of the plan states those name, each journaled once per plan.
	// StoreLiveStates counts the states held by plan job entries.
	StoreBytes               int64 `json:"store_bytes"`
	StorePlanCheckpointBytes int64 `json:"store_plan_checkpoint_bytes"`
	StorePlanStateBytes      int64 `json:"store_plan_state_bytes"`
	StoreLiveStates          int   `json:"store_live_states"`
	// Recovered* report what the job tables hold after boot-time recovery:
	// the plans and executions it replayed into them; truncated bytes count
	// the corrupt WAL tail it discarded.
	RecoveredPlans          int `json:"recovered_plans"`
	RecoveredExecs          int `json:"recovered_execs"`
	RecoveredTruncatedBytes int `json:"recovered_truncated_bytes"`
	// UnresumablePlans counts journaled plan checkpoints that failed to
	// resume and were restarted from level 0; UnresumableExecs the same for
	// guard checkpoints, restarted from wave 0.
	UnresumablePlans int64 `json:"unresumable_plans"`
	UnresumableExecs int64 `json:"unresumable_execs"`

	Draining bool `json:"draining"`
}

// snapshot renders the endpoint blocks, sorted by endpoint name.
func (m *serverMetrics) snapshot() ([]EndpointMetrics, int64, int64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EndpointMetrics, 0, len(m.endpoints))
	for name, es := range m.endpoints {
		em := EndpointMetrics{Endpoint: name, Requests: es.requests, Errors: es.errors}
		em.P50Ms = es.percentile(50)
		em.P99Ms = es.percentile(99)
		em.MaxMs = max(es.cur.maxMs, es.prev.maxMs)
		out = append(out, em)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out, m.rejectedQueueFull, m.rejectedDraining, m.deadlineExpired
}

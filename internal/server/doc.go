// Package server implements centraliumd, the long-lived control-plane
// daemon in front of the emulated fabric: a JSON-over-HTTP API that
// serves what-if qualification (§5.3.2 / §7.1), campaign planning, and
// the §7.2 operator debugging views from converged base snapshots.
//
// # Serving model
//
// The daemon never mutates a served state. Converged scenario bases are
// built once per (scenario, seed) through planner.ScenarioSetup and held
// in a warm LRU cache keyed by the snapshot's canonical state
// fingerprint (snapshot.Fingerprint); a singleflight latch collapses
// concurrent cold misses for the same base into one build. Every request
// then forks its own private network from the cached snapshot
// (snapshot.Restore: the fork clones the topology and shares the RIB
// columns read-only until it writes one) — the concurrency contract
// pinned by internal/snapshot's tests is exactly what makes one immutable
// snapshot safely forkable from any number of request goroutines. A
// request forks once: a what-if runs qualify.Run on its fork, not
// qualify.Gate, which would fork the fork.
//
// # Determinism
//
// Request handling is deterministic end to end: the fabric is seeded,
// forks are byte-identical, responses are rendered through one canonical
// JSON encoding, and no response body carries wall-clock time. The
// conformance suite holds the resulting property — N concurrent what-if
// requests against one snapshot produce byte-identical responses to the
// same requests served one at a time, at any worker width, under the
// race detector. (fingerprint, request) pairs are memoized, which can
// only ever save work, never change bytes.
//
// # Plan searches
//
// A POST /v1/plan search is resumable by plan ID and stays live between
// requests: the daemon holds the *planner.Search itself, and a request
// that stops early (max_levels, a deadline) leaves it where the next one
// continues. Serialized checkpoints exist for recovery only. With a store,
// every completed level appends one to the WAL before the next level
// starts, and the daemon's only in-memory copy is the persistor's mirror;
// the handler resumes from it when it has no live search — after a
// restart, an LRU eviction, or a step that failed (the search that ran an
// unjournaled level is dropped, as a crash would drop it). A journaled
// checkpoint that does not resume is treated as absent and the plan
// restarts from level 0: the final body is a pure function of (base,
// params), so it is byte-identical either way. A POST /v1/execute campaign
// is held the same way — the entry keeps the *guard.Execution, its guard
// checkpoints live in the mirror, and one that does not resume restarts
// the campaign from wave 0.
//
// # Admission, deadlines, drain
//
// Work runs on a bounded worker pool (Config.Workers). Requests beyond
// the pool wait in a bounded queue; past Workers+QueueDepth the daemon
// sheds load with 429 and a Retry-After header instead of queueing
// unboundedly. Each request carries a deadline (its timeout_ms, else
// Config.DefaultTimeout): when it expires the client gets a
// deterministic 504 body immediately, while the worker slot stays held
// until the orphaned evaluation finishes, so the pool bound is never
// violated. On SIGTERM the daemon drains: new work is rejected with 503,
// in-flight requests run to completion, and Drain returns once the last
// one finishes.
package server

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
// (snapshot.Restore: the fork shares the frozen topology, and the RIB
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
// # Jobs
//
// A POST /v1/plan search and a POST /v1/execute campaign are jobs, driven
// by one code path (drive). A job is addressed by an ID that hashes
// everything but pacing, and stays live between requests: the daemon holds
// the *planner.Search or *guard.Execution itself, and a request that stops
// early (max_levels / max_waves, a deadline) leaves it where the next one
// continues. One request at a time advances a job; an entry in use is
// never evicted. Serialized checkpoints exist for recovery only. With a
// store, every level or wave journals one — a plan's by reference, behind
// the states it names for the first time — and drive commits what the post
// journaled, with its final, as one WAL batch before it answers, into the
// job's record on its entry, the daemon's only in-memory copy; drive
// resumes from it when it has no live
// job — after a restart, or an advance that failed (the job is dropped, as
// a crash would drop it). A journaled checkpoint that does not resume is
// treated as absent and the job restarts: the final body is a pure
// function of the job's identity, so it is byte-identical either way, as
// it is for an evicted job.
//
// The WAL journals jobs and nothing else. Scenario bases and memoized
// what-if bodies are caches of pure functions: a restarted daemon rebuilds
// a base on the first request for it, to the same fingerprint, and
// recomputes a what-if to the same bytes. No job journals its base either:
// the job's ID hashes the base fingerprint and its post holds the cache
// entry, so the job's object store answers the base from that entry.
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

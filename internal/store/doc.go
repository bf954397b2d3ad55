// Package store is centralium's durable state plane: an append-only,
// CRC32C-framed, segment-rotated write-ahead log plus a content-addressed
// object store for encoded fabric snapshots.
//
// The WAL holds small, frequently-updated control-plane state — the
// daemon's jobs: plan-search checkpoints and the plan states they name,
// guard checkpoints, and both kinds' final responses — as typed records
// whose latest instance wins on replay. What can be recomputed (scenario
// bases, memoized responses) is not journaled. AppendBatch writes several
// records with one write and one fsync, so a plan level's new states and
// its checkpoint are durable together; a crash inside a batch leaves a
// prefix of it, as separate appends would. The object store holds the
// large immutable blobs records point at (canonical snapshot encodings of
// the guard's last-good states, keyed by their snapshot.Fingerprint),
// written atomically via tmp-file + rename so a crash never leaves a half
// object under a live key.
//
// Durability is fsync-policied (SyncAlways, SyncInterval, SyncNever) and
// recovery is crash-safe by construction: on Open every record's CRC32C is
// verified, a torn or corrupt tail in the newest segment is truncated —
// never panicked on, never silently replayed — and corruption anywhere
// before the tail (bit rot in supposedly-durable data) is a hard error
// instead of a quiet skip. The crash-recovery conformance suite in this
// package cuts a reference log at every record boundary, at every byte
// inside the tail record or a batch, and under injected bit flips, and
// requires recovery to yield exactly the durable prefix every time.
//
// Compaction is checkpoint-style: callers rotate to a fresh segment,
// re-append their live state, and Compact away every whole segment that
// precedes it (internal/server drives this once the log exceeds its
// segment budget).
package store

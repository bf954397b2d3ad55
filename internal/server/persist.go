package server

// The durable state plane. When a Config carries a *store.Store the
// daemon journals its resumable state through the store's WAL and keeps
// base snapshots in the content-addressed object store, so a restarted
// centraliumd resumes in-flight plan searches by plan ID and serves
// memoized responses byte-identically.
//
// What persists, by WAL record type:
//
//	recBase           scenario key → {fingerprint, params}; the snapshot
//	                  bytes live in the object store under the fingerprint
//	recPlanCheckpoint plan ID → between-levels search checkpoint
//	recPlanFinal      plan ID → final response bytes
//	recMemo           memo key → memoized response bytes
//	recExecCheckpoint exec ID → guard checkpoint (pre-wave / post-rollback);
//	                  last-good snapshots live in the object store under
//	                  their fingerprints
//	recExecFinal      exec ID → terminal /v1/execute response bytes
//
// Every payload is an EncodeKV(key, value) pair; the latest record for a
// key wins on replay. The persistor keeps a live mirror of exactly that
// latest-wins state, which makes checkpoint-style compaction safe and
// lock-free with respect to the serving path: Rotate, re-append the
// mirror, Sync, Compact — without ever taking a jobEntry or memo lock.
//
// The mirror keeps plans and executions alike, by job kind: the most
// recently recorded PlanStoreSize of each, rewritten in the order of their
// latest records, so which survive a restart is deterministic and the
// compacted log does not grow with the jobs ever served. A final record
// drops the job's checkpoint. The mirror is the only in-memory copy of a
// job's checkpoint; drive reads it only when it has no live job.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/store"
)

// sortedKeys returns a map's keys in sorted order — compaction and
// recovery iterate deterministically so rewritten logs are reproducible.
func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WAL record types of the daemon's durable state.
const (
	recBase           uint8 = 1
	recPlanCheckpoint uint8 = 2
	recPlanFinal      uint8 = 3
	recMemo           uint8 = 4
	recExecCheckpoint uint8 = 5
	recExecFinal      uint8 = 6
)

// baseRecord is the recBase payload value: everything needed to rebuild
// a warm cache entry without re-running scenario convergence, given the
// snapshot bytes from the object store.
type baseRecord struct {
	Fingerprint string         `json:"fingerprint"`
	Params      planner.Params `json:"params"`
}

// jobKind names a kind of resumable daemon job.
type jobKind uint8

const (
	planJob jobKind = iota
	execJob
	jobKinds
)

// jobRecords are each job kind's WAL record types.
var jobRecords = [jobKinds]struct{ checkpoint, final uint8 }{
	planJob: {recPlanCheckpoint, recPlanFinal},
	execJob: {recExecCheckpoint, recExecFinal},
}

// jobMirror is one job's live durable state: a resume checkpoint while it
// runs, the final response once it is done.
type jobMirror struct {
	checkpoint []byte
	final      []byte
}

// persistor owns the daemon's append path into the store. All methods
// are safe for concurrent use; callers never hold serving-path locks
// while the persistor compacts (the mirror is the compaction source).
type persistor struct {
	mu sync.Mutex
	st *store.Store

	// Live mirrors: the latest value per key, exactly what a compacted
	// log must preserve. The memo mirror is bounded first in first out, and
	// each kind's job mirror by latest record, as the memo and the serving
	// stores are, so the rewritten log cannot outgrow them.
	bases map[string][]byte
	jobs  [jobKinds]*recency[*jobMirror]
	memos *recency[[]byte]

	// compactEvery triggers checkpoint-style compaction once the log
	// holds more than this many segments.
	compactEvery int

	appends     int64
	compactions int64
	errors      int64
	// bytes counts the payload bytes append wrote, by record type.
	bytes [recExecFinal + 1]int64
}

func newPersistor(st *store.Store, compactEvery, memoMax, jobMax int) *persistor {
	return &persistor{
		st:    st,
		bases: make(map[string][]byte),
		jobs: [jobKinds]*recency[*jobMirror]{
			planJob: newRecency[*jobMirror](jobMax, nil),
			execJob: newRecency[*jobMirror](jobMax, nil),
		},
		memos:        newRecency[[]byte](memoMax, nil),
		compactEvery: compactEvery,
	}
}

// append writes one record, updates the mirror, and compacts when the
// log has accumulated enough dead weight. Mirror updates happen under
// p.mu only — never a serving-path lock.
func (p *persistor) append(typ uint8, key string, value []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	payload := store.EncodeKV(key, value)
	if _, err := p.st.Log.Append(typ, payload); err != nil {
		return err
	}
	p.appends++
	p.bytes[typ] += int64(len(payload))
	p.apply(typ, key, value)
	if p.st.Log.SegmentCount() > p.compactEvery {
		if err := p.compactLocked(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	return nil
}

// apply folds one record into the live mirror: the latest record per key
// wins. Unknown record types are forward compatibility, not corruption,
// and are skipped.
func (p *persistor) apply(typ uint8, key string, value []byte) {
	v := append([]byte(nil), value...)
	switch typ {
	case recBase:
		p.bases[key] = v
	case recMemo:
		p.memos.put(key, v)
	default:
		for k, rec := range jobRecords {
			if typ != rec.checkpoint && typ != rec.final {
				continue
			}
			// The job becomes the most recently recorded of its kind; a new
			// one past the bound evicts the least recently recorded.
			m, ok := p.jobs[k].touch(key)
			if !ok {
				m = &jobMirror{}
				p.jobs[k].put(key, m)
			}
			if typ == rec.final {
				*m = jobMirror{final: v}
			} else {
				m.checkpoint = v
			}
		}
	}
}

// compactLocked rewrites the live mirror into a fresh segment and drops
// everything older. Caller holds p.mu.
func (p *persistor) compactLocked() error {
	base, err := p.st.Log.Rotate()
	if err != nil {
		return err
	}
	rewrite := func(typ uint8, key string, value []byte) error {
		_, err := p.st.Log.Append(typ, store.EncodeKV(key, value))
		return err
	}
	for _, key := range sortedKeys(p.bases) {
		if err := rewrite(recBase, key, p.bases[key]); err != nil {
			return err
		}
	}
	for k, rec := range jobRecords {
		err := p.jobs[k].each(func(key string, m *jobMirror) error {
			if m.checkpoint != nil {
				if err := rewrite(rec.checkpoint, key, m.checkpoint); err != nil {
					return err
				}
			}
			if m.final != nil {
				return rewrite(rec.final, key, m.final)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := p.memos.each(func(key string, body []byte) error { return rewrite(recMemo, key, body) }); err != nil {
		return err
	}
	if err := p.st.Log.Sync(); err != nil {
		return err
	}
	if _, err := p.st.Log.Compact(base); err != nil {
		return err
	}
	p.compactions++
	return nil
}

// saveBase persists a freshly built cache entry: the canonical snapshot
// into the object store (content-addressed, idempotent) and the
// scenario-key → identity mapping into the WAL.
func (p *persistor) saveBase(e *cacheEntry) error {
	data, err := e.Snap.EncodeCanonical()
	if err != nil {
		return err
	}
	if err := p.st.Objects.Put(e.Fingerprint, data); err != nil {
		return err
	}
	rec, err := json.Marshal(&baseRecord{Fingerprint: e.Fingerprint, Params: e.Params})
	if err != nil {
		return err
	}
	return p.append(recBase, e.scenarioKey, rec)
}

// job returns the mirror's latest checkpoint and final of a job, nil when
// it has none. The bytes are the mirror's: read-only to the caller.
func (p *persistor) job(k jobKind, id string) (checkpoint, final []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.jobs[k].get(id); ok {
		return m.checkpoint, m.final
	}
	return nil, nil
}

// journal appends a job's checkpoints.
func (p *persistor) journal(k jobKind, id string) planner.Journal {
	return planner.JournalFunc(func(_ int, cp []byte) error {
		return p.append(jobRecords[k].checkpoint, id, cp)
	})
}

func (p *persistor) saveFinal(k jobKind, id string, body []byte) error {
	return p.append(jobRecords[k].final, id, body)
}

func (p *persistor) saveMemo(key string, body []byte) error {
	return p.append(recMemo, key, body)
}

func (p *persistor) noteError() {
	p.mu.Lock()
	p.errors++
	p.mu.Unlock()
}

func (p *persistor) stats() (appends, compactions, errs int64, segments int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appends, p.compactions, p.errors, p.st.Log.SegmentCount()
}

// bytesAppended reports the payload bytes behind stats' appends: in total,
// and the plan checkpoints' share.
func (p *persistor) bytesAppended() (total, planCheckpoints int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.bytes {
		total += n
	}
	return total, p.bytes[recPlanCheckpoint]
}

// recoveryStats counts what a boot-time recovery rebuilt.
type recoveryStats struct {
	Bases          int
	Plans          int
	Execs          int
	Memos          int
	TruncatedBytes int
}

// recover replays the WAL into the persistor's mirror, then hydrates the
// server's serving-path state from it: memo bodies answer repeat requests,
// and base snapshots come back warm from the object store — each verified
// against its content address before use; a missing or corrupt object
// degrades to a cold rebuild, never to wrong state. Jobs stay in the mirror:
// drive answers a finished one from its final bytes, and resumes an
// unfinished one from its checkpoint, when its ID is next posted.
func (p *persistor) recover(s *Server) (recoveryStats, error) {
	var rs recoveryStats
	err := p.st.Log.Replay(func(r store.Record) error {
		key, value, err := store.DecodeKV(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Index, err)
		}
		p.apply(r.Type, key, value)
		return nil
	})
	if err != nil {
		return rs, err
	}
	rs.TruncatedBytes = p.st.Log.TruncatedBytes()

	for _, key := range sortedKeys(p.bases) {
		var rec baseRecord
		if err := json.Unmarshal(p.bases[key], &rec); err != nil {
			delete(p.bases, key)
			continue
		}
		entry, err := restoreEntry(p.st, key, rec)
		if err != nil {
			// Cold rebuild on demand; the WAL mapping is dropped so a
			// later saveBase rewrites it.
			delete(p.bases, key)
			continue
		}
		s.cache.add(entry)
		rs.Bases++
	}
	rs.Plans, rs.Execs = p.jobs[planJob].len(), p.jobs[execJob].len()
	p.memos.each(func(key string, body []byte) error {
		s.memo.put(key, body)
		return nil
	})
	rs.Memos = p.memos.len()
	return rs, nil
}

// restoreEntry loads and verifies one base snapshot from the object
// store and rebuilds its warm cache entry.
func restoreEntry(st *store.Store, scenarioKey string, rec baseRecord) (*cacheEntry, error) {
	data, ok, err := st.Objects.Get(rec.Fingerprint)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("base object %s missing", rec.Fingerprint)
	}
	// The fingerprint is the sha256 of the canonical encoding; recompute
	// it so a wrong-but-well-framed object can never seed the cache.
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != rec.Fingerprint {
		return nil, fmt.Errorf("base object %s fails content verification", rec.Fingerprint)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{Fingerprint: rec.Fingerprint, Snap: snap, Params: rec.Params, scenarioKey: scenarioKey}, nil
}

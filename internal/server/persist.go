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
// mirror, Sync, Compact — without ever taking a planEntry or memo lock.
// The mirror holds the most recently recorded PlanStoreSize plans and
// executions — what the LRU-bounded serving stores would keep of a replay —
// and rewrites and recovers them in the order of their latest records, so
// which of them survive a restart is deterministic and the compacted log
// does not grow with the number of jobs ever served. A final record drops
// the job's checkpoint: a finished job answers from its final bytes.
//
// The mirror is also the only in-memory copy of a plan's or an execution's
// checkpoint: a jobEntry holds the live search or execution, not its bytes,
// and the handlers ask the mirror (checkpoint) only when they have no live
// job.

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

// planMirror is one plan's (or execution's) live durable state: a resume
// checkpoint while it runs, the final response once it is done.
type planMirror struct {
	checkpoint []byte
	final      []byte
	// seq orders mirrors by their latest record (see persistor.seq).
	seq int64
}

// byRecency returns the mirror's keys ordered by latest record, oldest
// first.
func byRecency(m map[string]*planMirror) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return m[out[i]].seq < m[out[j]].seq })
	return out
}

// persistor owns the daemon's append path into the store. All methods
// are safe for concurrent use; callers never hold serving-path locks
// while the persistor compacts (the mirror is the compaction source).
type persistor struct {
	mu sync.Mutex
	st *store.Store

	// Live mirrors: the latest value per key, exactly what a compacted
	// log must preserve. memoOrder bounds the memo mirror FIFO-style, and
	// planMax the plan and execution mirrors by recency, so the rewritten
	// log cannot outgrow the in-memory memo and serving stores.
	bases     map[string][]byte
	plans     map[string]*planMirror
	execs     map[string]*planMirror
	planMax   int
	memos     map[string][]byte
	memoOrder []string
	memoMax   int
	// seq counts records folded into the mirror (appended or replayed).
	seq int64

	// compactEvery triggers checkpoint-style compaction once the log
	// holds more than this many segments.
	compactEvery int

	appends     int64
	compactions int64
	errors      int64
	// bytes counts the payload bytes append wrote, by record type.
	bytes [recExecFinal + 1]int64
}

func newPersistor(st *store.Store, compactEvery, memoMax, planMax int) *persistor {
	return &persistor{
		st:           st,
		bases:        make(map[string][]byte),
		plans:        make(map[string]*planMirror),
		execs:        make(map[string]*planMirror),
		planMax:      planMax,
		memos:        make(map[string][]byte),
		memoMax:      memoMax,
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
	p.seq++
	v := append([]byte(nil), value...)
	switch typ {
	case recBase:
		p.bases[key] = v
	case recPlanCheckpoint:
		p.touch(p.plans, key).checkpoint = v
	case recPlanFinal:
		pm := p.touch(p.plans, key)
		pm.final, pm.checkpoint = v, nil
	case recExecCheckpoint:
		p.touch(p.execs, key).checkpoint = v
	case recExecFinal:
		pm := p.touch(p.execs, key)
		pm.final, pm.checkpoint = v, nil
	case recMemo:
		if _, ok := p.memos[key]; !ok {
			p.memoOrder = append(p.memoOrder, key)
			for len(p.memoOrder) > p.memoMax {
				delete(p.memos, p.memoOrder[0])
				p.memoOrder = p.memoOrder[1:]
			}
		}
		p.memos[key] = v
	}
}

// touch returns (creating if needed) the mirror of key, stamped as the
// most recently recorded; a new key past planMax evicts the least recently
// recorded one.
func (p *persistor) touch(m map[string]*planMirror, key string) *planMirror {
	pm := m[key]
	if pm == nil {
		if len(m) >= p.planMax {
			delete(m, byRecency(m)[0])
		}
		pm = &planMirror{}
		m[key] = pm
	}
	pm.seq = p.seq
	return pm
}

// compactLocked rewrites the live mirror into a fresh segment and drops
// everything older. Caller holds p.mu.
func (p *persistor) compactLocked() error {
	base, err := p.st.Log.Rotate()
	if err != nil {
		return err
	}
	for _, key := range sortedKeys(p.bases) {
		if _, err := p.st.Log.Append(recBase, store.EncodeKV(key, p.bases[key])); err != nil {
			return err
		}
	}
	for _, key := range byRecency(p.plans) {
		pm := p.plans[key]
		if pm.checkpoint != nil {
			if _, err := p.st.Log.Append(recPlanCheckpoint, store.EncodeKV(key, pm.checkpoint)); err != nil {
				return err
			}
		}
		if pm.final != nil {
			if _, err := p.st.Log.Append(recPlanFinal, store.EncodeKV(key, pm.final)); err != nil {
				return err
			}
		}
	}
	for _, key := range byRecency(p.execs) {
		pm := p.execs[key]
		if pm.checkpoint != nil {
			if _, err := p.st.Log.Append(recExecCheckpoint, store.EncodeKV(key, pm.checkpoint)); err != nil {
				return err
			}
		}
		if pm.final != nil {
			if _, err := p.st.Log.Append(recExecFinal, store.EncodeKV(key, pm.final)); err != nil {
				return err
			}
		}
	}
	for _, key := range p.memoOrder {
		if _, err := p.st.Log.Append(recMemo, store.EncodeKV(key, p.memos[key])); err != nil {
			return err
		}
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

func (p *persistor) savePlanCheckpoint(id string, cp []byte) error {
	return p.append(recPlanCheckpoint, id, cp)
}

// checkpoint returns the latest journaled checkpoint of a plan (m =
// p.plans) or an execution (m = p.execs), nil when it has none. The bytes
// are the mirror's: read-only to the caller.
func (p *persistor) checkpoint(m map[string]*planMirror, id string) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pm := m[id]; pm != nil {
		return pm.checkpoint
	}
	return nil
}

func (p *persistor) savePlanFinal(id string, body []byte) error {
	return p.append(recPlanFinal, id, body)
}

func (p *persistor) saveMemo(key string, body []byte) error {
	return p.append(recMemo, key, body)
}

func (p *persistor) saveExecCheckpoint(id string, cp []byte) error {
	return p.append(recExecCheckpoint, id, cp)
}

func (p *persistor) saveExecFinal(id string, body []byte) error {
	return p.append(recExecFinal, id, body)
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
	SkippedBases   int
}

// recover replays the WAL into the persistor's mirror, then hydrates the
// server's serving-path state from it: finished plans and executions answer
// from their final bytes (an unfinished one resumes from the mirror's
// checkpoint when its ID is next posted), memo bodies answer repeat
// requests, and base snapshots come back warm from the object store — each
// verified against its content address before use; a missing or corrupt
// object degrades to a cold rebuild, never to wrong state.
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
			rs.SkippedBases++
			delete(p.bases, key)
			continue
		}
		entry, err := restoreEntry(p.st, key, rec)
		if err != nil {
			// Cold rebuild on demand; the WAL mapping is dropped so a
			// later saveBase rewrites it.
			rs.SkippedBases++
			delete(p.bases, key)
			continue
		}
		s.cache.add(entry)
		rs.Bases++
	}
	// Oldest first: the LRU-bounded stores keep the most recently recorded.
	rs.Plans = recoverFinals(p.plans, s.plans)
	rs.Execs = recoverFinals(p.execs, s.execs)
	for _, key := range p.memoOrder {
		s.memo.put(key, p.memos[key])
		rs.Memos++
	}
	return rs, nil
}

// recoverFinals hands each recovered job's final bytes, if it has them, to
// its serving entry, oldest first; an unfinished job resumes from the
// mirror's checkpoint when its ID is next posted. It returns the job count.
func recoverFinals[J any](m map[string]*planMirror, es *entryStore[J]) int {
	for _, id := range byRecency(m) {
		e := es.get(id)
		e.mu.Lock()
		e.final = m[id].final
		e.mu.Unlock()
	}
	return len(m)
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

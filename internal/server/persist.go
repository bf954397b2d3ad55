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
//	recPlanState      plan ID → a state the plan's checkpoints name: its
//	                  fingerprint (64 hex bytes), then its encoding
//
// Every payload is an EncodeKV(key, value) pair; the latest record for a
// key wins on replay, except that a plan's state records accumulate.
//
// The serving tables — the snapshot cache, the response memo, and the job
// stores, whose entries hold a jobRecord each — are the only in-memory home
// of that state, so each table's one bound (CacheSize, MemoSize,
// PlanStoreSize) bounds the compacted log too. Compaction rewrites them:
// Rotate, re-append each table's members in its recency order, Sync,
// Compact. Recovery replays the WAL straight back into them, in log order:
// the jobs that survive are the most recently recorded, the same ones on
// every boot, and of the bases only the newest CacheSize are restored. A
// job evicted from its table is forgotten: posted again, it re-runs.
//
// Locks: code that writes a jobRecord holds its entry's lock and p.mu, so
// drive reads a record under the entry lock and compaction under p.mu.
// Compaction takes each table's own lock only to list its members and
// never takes an entry lock; no code calls into the persistor while it
// holds a table lock.
//
// A plan's search checkpoints by reference (planner container v3, bare
// framing): each state it names goes into the plan's own state records once
// per job, in the same batch — one write, one fsync — as the first
// checkpoint that names it, ahead of that checkpoint. A crash inside the
// batch leaves states no checkpoint names yet, which are harmless: the
// previous checkpoint still resumes. A final record drops the job's
// checkpoint and states. Records keep journaled bytes without copying
// them: a journal owns what it is handed, and recovery copies what it
// replays out of the segment buffers.

import (
	"bytes"
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

// WAL record types of the daemon's durable state.
const (
	recBase           uint8 = 1
	recPlanCheckpoint uint8 = 2
	recPlanFinal      uint8 = 3
	recMemo           uint8 = 4
	recExecCheckpoint uint8 = 5
	recExecFinal      uint8 = 6
	recPlanState      uint8 = 7
)

// fpLen is the length of a state fingerprint, hex sha256, at the head of a
// recPlanState value.
const fpLen = 2 * sha256.Size

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

// jobRecords are each job kind's WAL record types. An execution has no
// state records: its last-good states go to the object store.
var jobRecords = [jobKinds]struct{ checkpoint, final, state uint8 }{
	planJob: {recPlanCheckpoint, recPlanFinal, recPlanState},
	execJob: {recExecCheckpoint, recExecFinal, 0},
}

// jobRecord is one job's durable state, held by its jobEntry: while it
// runs, its latest checkpoint, the states its checkpoints name by
// fingerprint and the states its search staged since its last journal;
// once it is done, its final response bytes alone.
type jobRecord struct {
	checkpoint []byte
	states     map[string][]byte
	staged     []stagedState
	final      []byte
}

// stagedState is a state a job's search Put since its last journal.
type stagedState struct {
	fp   string
	data []byte
}

// jobTable is a job store as the persistor sees it, whatever its job type.
type jobTable interface {
	// records lists the jobs and their records, least recently used first.
	records() (ids []string, recs []*jobRecord)
	// update runs f on job id's record under the job's lock, making the job
	// the most recently used of its table.
	update(id string, f func(*jobRecord))
}

// persistor owns the daemon's append path into the store. All methods
// are safe for concurrent use.
type persistor struct {
	mu sync.Mutex
	st *store.Store

	// The serving tables, which compaction rewrites and recovery refills.
	cache *snapCache
	memo  *respMemo
	jobs  [jobKinds]jobTable

	// compactEvery triggers checkpoint-style compaction once the log
	// holds more than this many segments.
	compactEvery int

	appends     int64
	compactions int64
	errors      int64
	// bytes counts the payload bytes appended, by record type.
	bytes [recPlanState + 1]int64
}

// entry is one record of the persistor's: its type, its key and the parts
// of its value.
func entry(typ uint8, key string, value ...[]byte) store.Entry {
	return store.Entry{Type: typ, Key: key, Value: value}
}

// commit writes entries as one batch — one write, one fsync — and, once
// they are durable, runs apply (when set), which folds them into a job's
// record; then compacts when the log has accumulated enough dead weight, so
// a compaction rewrites what the batch recorded. Without a store it only
// applies.
func (p *persistor) commit(apply func(), entries ...store.Entry) error {
	if p == nil {
		apply()
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitLocked(apply, entries...)
}

// commitLocked is commit with p.mu held.
func (p *persistor) commitLocked(apply func(), entries ...store.Entry) error {
	if _, err := p.st.Log.AppendBatch(entries); err != nil {
		return err
	}
	p.appends++
	for _, e := range entries {
		p.bytes[e.Type] += int64(e.PayloadSize())
	}
	if apply != nil {
		apply()
	}
	if p.st.Log.SegmentCount() > p.compactEvery {
		if err := p.compactLocked(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	return nil
}

// compactLocked rewrites the serving tables into a fresh segment and drops
// everything older. Caller holds p.mu.
func (p *persistor) compactLocked() error {
	base, err := p.st.Log.Rotate()
	if err != nil {
		return err
	}
	rewrite := func(batch ...store.Entry) error {
		if len(batch) == 0 {
			return nil
		}
		_, err := p.st.Log.AppendBatch(batch)
		return err
	}
	for _, e := range p.cache.list() {
		rec, err := json.Marshal(&baseRecord{Fingerprint: e.Fingerprint, Params: e.Params})
		if err != nil {
			return err
		}
		if err := rewrite(entry(recBase, e.scenarioKey, rec)); err != nil {
			return err
		}
	}
	for k, kind := range jobRecords {
		// A job is one batch: its states, then the checkpoint that names
		// them, then its final.
		ids, recs := p.jobs[k].records()
		for i, r := range recs {
			var batch []store.Entry
			fps := make([]string, 0, len(r.states))
			for fp := range r.states {
				fps = append(fps, fp)
			}
			sort.Strings(fps)
			for _, fp := range fps {
				batch = append(batch, entry(kind.state, ids[i], []byte(fp), r.states[fp]))
			}
			if r.checkpoint != nil {
				batch = append(batch, entry(kind.checkpoint, ids[i], r.checkpoint))
			}
			if r.final != nil {
				batch = append(batch, entry(kind.final, ids[i], r.final))
			}
			if err := rewrite(batch...); err != nil {
				return err
			}
		}
	}
	keys, bodies := p.memo.list()
	for i, key := range keys {
		if err := rewrite(entry(recMemo, key, bodies[i])); err != nil {
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
	return p.commit(nil, entry(recBase, e.scenarioKey, rec))
}

// journal appends job id's checkpoints into rec, each in one batch behind
// the states the job's search staged for it that rec does not hold yet; nil
// without a store.
func (p *persistor) journal(k jobKind, id string, rec *jobRecord) planner.Journal {
	if p == nil {
		return nil
	}
	return planner.JournalFunc(func(_ int, cp []byte) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		staged := rec.staged
		rec.staged = nil
		var batch []store.Entry
		for _, st := range staged {
			if _, ok := rec.states[st.fp]; !ok {
				batch = append(batch, entry(jobRecords[k].state, id, []byte(st.fp), st.data))
			}
		}
		return p.commitLocked(func() {
			if rec.states == nil && len(staged) > 0 {
				rec.states = make(map[string][]byte)
			}
			for _, st := range staged {
				rec.states[st.fp] = st.data
			}
			rec.checkpoint = cp
		}, append(batch, entry(jobRecords[k].checkpoint, id, cp))...)
	})
}

// objects is the object store of a search over rec; nil without a store,
// and the search then checkpoints inline.
func (p *persistor) objects(rec *jobRecord) planner.ObjectStore {
	if p == nil {
		return nil
	}
	return jobObjects{p, rec}
}

// jobObjects is the object store of a plan's search over its record: Put
// stages a state for the job's next journal, which writes it unless the
// record holds it already, and Get reads the record's states — under the
// entry lock, which the search's caller holds. Neither copies a state:
// encodings are immutable.
type jobObjects struct {
	p   *persistor
	rec *jobRecord
}

func (o jobObjects) Put(fp string, data []byte) error {
	o.p.mu.Lock()
	defer o.p.mu.Unlock()
	o.rec.staged = append(o.rec.staged, stagedState{fp, data})
	return nil
}

func (o jobObjects) Get(fp string) ([]byte, bool, error) {
	data, ok := o.rec.states[fp]
	return data, ok, nil
}

func (p *persistor) saveMemo(key string, body []byte) error {
	return p.commit(nil, entry(recMemo, key, body))
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
// the plan checkpoints' (manifests) and the plan states' shares.
func (p *persistor) bytesAppended() (total, planCheckpoints, planStates int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.bytes {
		total += n
	}
	return total, p.bytes[recPlanCheckpoint], p.bytes[recPlanState]
}

// liveStates counts the states the plan jobs' records hold.
func (p *persistor) liveStates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, recs := p.jobs[planJob].records()
	n := 0
	for _, r := range recs {
		n += len(r.states)
	}
	return n
}

// recoveryStats counts what a boot-time recovery rebuilt.
type recoveryStats struct {
	Bases          int
	Plans          int
	Execs          int
	Memos          int
	TruncatedBytes int
}

// recover replays the WAL into the serving tables. Memo bodies answer
// repeat requests; each job's record takes its records, and drive answers a
// finished job from its final and resumes an unfinished one from its
// checkpoint when its ID is next posted. Of the bases, the newest
// cacheSize come back warm from the object store — each verified against
// its content address before use; a missing or corrupt object degrades to
// a cold rebuild, never to wrong state.
func (p *persistor) recover(cacheSize int) (recoveryStats, error) {
	var rs recoveryStats
	// The latest base record per scenario key, in log order, the newest
	// cacheSize only.
	bases := newRecency[[]byte](cacheSize, nil)
	err := p.st.Log.Replay(func(r store.Record) error {
		key, value, err := store.DecodeKV(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Index, err)
		}
		value = bytes.Clone(value) // the tables keep it; the segment buffer goes
		switch r.Type {
		case recBase:
			bases.touch(key)
			bases.put(key, value)
		case recMemo:
			p.memo.put(key, value)
		}
		// Unknown record types are forward compatibility, not corruption,
		// and are skipped.
		for k, kind := range jobRecords {
			isState := kind.state != 0 && r.Type == kind.state && len(value) >= fpLen
			if r.Type != kind.final && r.Type != kind.checkpoint && !isState {
				continue
			}
			p.jobs[k].update(key, func(j *jobRecord) {
				p.mu.Lock()
				defer p.mu.Unlock()
				switch {
				case r.Type == kind.final:
					j.final, j.checkpoint, j.states, j.staged = value, nil, nil, nil
				case r.Type == kind.checkpoint:
					j.checkpoint = value
				default:
					if j.states == nil {
						j.states = make(map[string][]byte)
					}
					j.states[string(value[:fpLen])] = value[fpLen:]
				}
			})
		}
		return nil
	})
	if err != nil {
		return rs, err
	}
	rs.TruncatedBytes = p.st.Log.TruncatedBytes()

	keys, recs := bases.list()
	for i, key := range keys {
		// A base that does not restore rebuilds cold on demand, and its
		// build records it again.
		var rec baseRecord
		if json.Unmarshal(recs[i], &rec) != nil {
			continue
		}
		if entry, err := restoreEntry(p.st, key, rec); err == nil {
			p.cache.add(entry)
			rs.Bases++
		}
	}
	plans, _ := p.jobs[planJob].records()
	execs, _ := p.jobs[execJob].records()
	rs.Plans, rs.Execs = len(plans), len(execs)
	_, _, rs.Memos = p.memo.stats()
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

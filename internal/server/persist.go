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
// key wins on replay, except that a plan's state records accumulate. The
// persistor keeps a live mirror of exactly that state, which makes
// checkpoint-style compaction safe and lock-free with respect to the
// serving path: Rotate, re-append the mirror, Sync, Compact — without ever
// taking a jobEntry or memo lock.
//
// A plan's search checkpoints by reference (planner container v3, bare
// framing): each state it names goes into the plan's own state records once
// per job, in the same batch — one write, one fsync — as the first
// checkpoint that names it, ahead of that checkpoint. A crash inside the
// batch leaves states no checkpoint names yet, which are harmless: the
// previous checkpoint still resumes.
//
// The mirror keeps plans and executions alike, by job kind: the most
// recently recorded PlanStoreSize of each, rewritten in the order of their
// latest records, so which survive a restart is deterministic and the
// compacted log does not grow with the jobs ever served. A final record
// drops the job's checkpoint and states. The mirror is the only in-memory
// copy of a job's checkpoint; drive reads it only when it has no live job.
// It keeps journaled bytes without copying them: a journal owns what it is
// handed, and recovery copies what it replays out of the segment buffers.

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

// jobMirror is one job's live durable state: a resume checkpoint and the
// states it names by fingerprint while it runs, the final response once it
// is done.
type jobMirror struct {
	checkpoint []byte
	states     map[string][]byte
	final      []byte
}

// jobRef names one job.
type jobRef struct {
	kind jobKind
	id   string
}

// stagedState is a state a job's search Put since its last journal.
type stagedState struct {
	fp   string
	data []byte
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
	// staged holds, per job, the states its search Put since its last
	// journal; the journal writes those the mirror lacks.
	staged map[jobRef][]stagedState

	// compactEvery triggers checkpoint-style compaction once the log
	// holds more than this many segments.
	compactEvery int

	appends     int64
	compactions int64
	errors      int64
	// bytes counts the payload bytes appended, by record type.
	bytes [recPlanState + 1]int64
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
		staged:       make(map[jobRef][]stagedState),
		compactEvery: compactEvery,
	}
}

// append writes one record, updates the mirror, and compacts when the
// log has accumulated enough dead weight.
func (p *persistor) append(typ uint8, key string, value []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.appendLocked([]store.Entry{entry(typ, key, value)})
}

// entry is one record of the persistor's: its type, its key and the parts
// of its value.
func entry(typ uint8, key string, value ...[]byte) store.Entry {
	return store.Entry{Type: typ, Key: key, Value: value}
}

// appendLocked writes entries as one batch — one write, one fsync — folds
// them into the mirror, and compacts when the log has accumulated enough
// dead weight. A recPlanState entry's value is its fingerprint, then its
// bytes. Mirror updates happen under p.mu only — never a serving-path lock.
func (p *persistor) appendLocked(entries []store.Entry) error {
	if _, err := p.st.Log.AppendBatch(entries); err != nil {
		return err
	}
	p.appends++
	for _, e := range entries {
		p.bytes[e.Type] += int64(e.PayloadSize())
		if e.Type == recPlanState {
			p.applyState(planJob, e.Key, string(e.Value[0]), e.Value[1])
		} else {
			p.apply(e.Type, e.Key, e.Value[0])
		}
	}
	if p.st.Log.SegmentCount() > p.compactEvery {
		if err := p.compactLocked(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	return nil
}

// mirror returns job id's mirror of kind k, making it the most recently
// recorded of its kind; a new one past the bound evicts the least recently
// recorded.
func (p *persistor) mirror(k jobKind, id string) *jobMirror {
	m, ok := p.jobs[k].touch(id)
	if !ok {
		m = &jobMirror{}
		p.jobs[k].put(id, m)
	}
	return m
}

// apply folds one record into the live mirror, keeping value: the latest
// record per key wins, and a state record adds its state to its job.
// Unknown record types are forward compatibility, not corruption, and are
// skipped.
func (p *persistor) apply(typ uint8, key string, value []byte) {
	switch typ {
	case recBase:
		p.bases[key] = value
	case recMemo:
		p.memos.put(key, value)
	default:
		for k, rec := range jobRecords {
			switch {
			case rec.state != 0 && typ == rec.state:
				if len(value) >= fpLen {
					p.applyState(jobKind(k), key, string(value[:fpLen]), value[fpLen:])
				}
			case typ == rec.final:
				*p.mirror(jobKind(k), key) = jobMirror{final: value}
			case typ == rec.checkpoint:
				p.mirror(jobKind(k), key).checkpoint = value
			}
		}
	}
}

// applyState adds one state to job id's mirror.
func (p *persistor) applyState(k jobKind, id, fp string, data []byte) {
	m := p.mirror(k, id)
	if m.states == nil {
		m.states = make(map[string][]byte)
	}
	m.states[fp] = data
}

// compactLocked rewrites the live mirror into a fresh segment and drops
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
	for _, key := range sortedKeys(p.bases) {
		if err := rewrite(entry(recBase, key, p.bases[key])); err != nil {
			return err
		}
	}
	for k, rec := range jobRecords {
		// A job is one batch: its states, then the checkpoint that names
		// them, then its final.
		err := p.jobs[k].each(func(key string, m *jobMirror) error {
			var batch []store.Entry
			for _, fp := range sortedKeys(m.states) {
				batch = append(batch, entry(rec.state, key, []byte(fp), m.states[fp]))
			}
			if m.checkpoint != nil {
				batch = append(batch, entry(rec.checkpoint, key, m.checkpoint))
			}
			if m.final != nil {
				batch = append(batch, entry(rec.final, key, m.final))
			}
			return rewrite(batch...)
		})
		if err != nil {
			return err
		}
	}
	if err := p.memos.each(func(key string, body []byte) error { return rewrite(entry(recMemo, key, body)) }); err != nil {
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

// journal appends a job's checkpoints, each in one batch behind the
// states the job's search staged for it that the mirror does not hold yet.
func (p *persistor) journal(k jobKind, id string) planner.Journal {
	return planner.JournalFunc(func(_ int, cp []byte) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		ref := jobRef{k, id}
		staged := p.staged[ref]
		delete(p.staged, ref)
		var held map[string][]byte
		if m, ok := p.jobs[k].get(id); ok {
			held = m.states
		}
		var batch []store.Entry
		for _, st := range staged {
			if _, ok := held[st.fp]; !ok {
				batch = append(batch, entry(jobRecords[k].state, id, []byte(st.fp), st.data))
			}
		}
		return p.appendLocked(append(batch, entry(jobRecords[k].checkpoint, id, cp)))
	})
}

// objects is the object store of job id's search: Put stages a state for
// the job's next journal, which writes it unless the job's mirror holds it
// already, and Get reads the mirror — or, for a job evicted from it since,
// the mirror as it stood when the store was made, so a post that resumes a
// job while other jobs' records push it out still finds its states.
// Neither copies a state: encodings are immutable. Only a kind with state
// records has one.
func (p *persistor) objects(k jobKind, id string) planner.ObjectStore {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := jobObjects{p: p, ref: jobRef{k, id}}
	if m, ok := p.jobs[k].get(id); ok {
		o.held = m.states
	}
	return o
}

type jobObjects struct {
	p    *persistor
	ref  jobRef
	held map[string][]byte
}

func (o jobObjects) Put(fp string, data []byte) error {
	o.p.mu.Lock()
	defer o.p.mu.Unlock()
	o.p.staged[o.ref] = append(o.p.staged[o.ref], stagedState{fp, data})
	return nil
}

func (o jobObjects) Get(fp string) ([]byte, bool, error) {
	o.p.mu.Lock()
	defer o.p.mu.Unlock()
	if m, ok := o.p.jobs[o.ref.kind].get(o.ref.id); ok {
		if data, ok := m.states[fp]; ok {
			return data, true, nil
		}
	}
	data, ok := o.held[fp]
	return data, ok, nil
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
// the plan checkpoints' (manifests) and the plan states' shares.
func (p *persistor) bytesAppended() (total, planCheckpoints, planStates int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.bytes {
		total += n
	}
	return total, p.bytes[recPlanCheckpoint], p.bytes[recPlanState]
}

// liveStates counts the states the job mirrors hold.
func (p *persistor) liveStates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for k := range p.jobs {
		p.jobs[k].each(func(_ string, m *jobMirror) error {
			n += len(m.states)
			return nil
		})
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
		p.apply(r.Type, key, bytes.Clone(value)) // the mirror keeps it; the segment buffer goes
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

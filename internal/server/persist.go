package server

// The durable state plane. When a Config carries a *store.Store the
// daemon journals its jobs through the store's WAL, so a restarted
// centraliumd resumes in-flight plan searches and guarded executions by
// ID and answers finished ones from their final bytes. Nothing else is
// durable: scenario bases and memoized what-if bodies are pure functions
// of their keys, and a restarted daemon rebuilds them on demand to the
// same bytes.
//
// What persists, by WAL record type:
//
//	recPlanCheckpoint plan ID → between-levels search checkpoint
//	recPlanFinal      plan ID → final response bytes
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
// A job never journals its base. Its ID hashes the base fingerprint, and
// every post resolves the base through the snapshot cache before it touches
// the job, so a job's object store (baseFirst) answers the base from the
// cache entry the post holds and ignores a Put of it.
//
// The job tables, whose entries hold a jobRecord each, are the only
// in-memory home of that state, so their bound (PlanStoreSize) bounds the
// compacted log too. Compaction rewrites them: Rotate, re-append each
// table's members in its recency order, Sync, Compact. Recovery replays
// the WAL straight back into them, in log order: the jobs that survive are
// the most recently recorded, the same ones on every boot. A job evicted
// from its table is forgotten: posted again, it re-runs.
//
// Locks: code that writes a jobRecord holds its entry's lock and p.mu, so
// drive reads a record under the entry lock and compaction under p.mu.
// Compaction takes each table's own lock only to list its members and
// never takes an entry lock; no code calls into the persistor while it
// holds a table lock.
//
// A post is one batch — one write, one fsync: a job's journal stages its
// checkpoints on the record, and drive commits them, with the job's final,
// before the post answers; the record takes them once they are durable. A
// plan's search checkpoints by reference (planner container v3, bare
// framing): each state it names goes into the plan's own state records once
// per job, ahead of the first checkpoint that names it. A crash inside the
// batch leaves a prefix of it, whose last checkpoint, if any, resumes. A
// final record drops the job's checkpoint and states. Records keep
// journaled bytes without copying them: a journal owns what it is handed,
// and recovery copies what it replays out of the segment buffers.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"slices"
	"sort"
	"sync"

	"centralium/internal/planner"
	"centralium/internal/store"
)

// WAL record types of the daemon's durable state. Types 1 and 4 are
// retired and never reused: they journaled scenario bases and memoized
// what-if bodies, and recovery skips them like any unknown type.
const (
	recPlanCheckpoint uint8 = 2
	recPlanFinal      uint8 = 3
	recExecCheckpoint uint8 = 5
	recExecFinal      uint8 = 6
	recPlanState      uint8 = 7
)

// fpLen is the length of a state fingerprint, hex sha256, at the head of a
// recPlanState value.
const fpLen = 2 * sha256.Size

// jobKind names a kind of resumable daemon job.
type jobKind uint8

const (
	planJob jobKind = iota
	execJob
	jobKinds
)

// recordTypes are one job kind's WAL record types.
type recordTypes struct{ checkpoint, final, state uint8 }

// jobRecords are each job kind's WAL record types. An execution has no
// state records: its last-good states go to the object store.
var jobRecords = [jobKinds]recordTypes{
	planJob: {recPlanCheckpoint, recPlanFinal, recPlanState},
	execJob: {recExecCheckpoint, recExecFinal, 0},
}

// jobRecord is one job's durable state, held by its jobEntry: while it
// runs, its latest checkpoint and the states its checkpoints name by
// fingerprint; once it is done, its final response bytes alone. staged are
// the states its search Put since its last journal, and post the entries the
// current post journaled, which drive commits; only the entry's holder
// touches those two.
type jobRecord struct {
	checkpoint []byte
	states     map[string][]byte
	staged     []stagedState
	post       []store.Entry
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

	// The job tables, which compaction rewrites and recovery refills.
	jobs [jobKinds]jobTable

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

// compactLocked rewrites the job tables into a fresh segment and drops
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
	if err := p.st.Log.Sync(); err != nil {
		return err
	}
	if _, err := p.st.Log.Compact(base); err != nil {
		return err
	}
	p.compactions++
	return nil
}

// journal stages job id's checkpoints on rec's post, each behind the states
// the job's search staged for it that neither rec nor the post holds yet;
// nil without a store.
func (p *persistor) journal(k jobKind, id string, rec *jobRecord) planner.Journal {
	if p == nil {
		return nil
	}
	kind := jobRecords[k]
	return planner.JournalFunc(func(_ int, cp []byte) error {
		for _, st := range rec.staged {
			if _, ok := rec.states[st.fp]; !ok && !slices.ContainsFunc(rec.post, func(e store.Entry) bool {
				return e.Type == kind.state && string(e.Value[0]) == st.fp
			}) {
				rec.post = append(rec.post, entry(kind.state, id, []byte(st.fp), st.data))
			}
		}
		rec.staged = nil
		rec.post = append(rec.post, entry(kind.checkpoint, id, cp))
		return nil
	})
}

// flush commits rec's post — what the job journaled in this post, and its
// final if it has one — as one batch, one write and one fsync, and once that
// is durable folds the batch into rec; then it compacts when the log has
// accumulated enough dead weight, so a compaction rewrites what the batch
// recorded. It clears the post either way and appends nothing empty. A
// failed compaction does not fail the post, whose batch is durable: it
// counts in errors. Without a store it only folds.
func (p *persistor) flush(k jobKind, rec *jobRecord) error {
	entries := rec.post
	rec.post = nil
	if len(entries) == 0 {
		return nil
	}
	if p == nil {
		for _, e := range entries {
			jobRecords[k].fold(rec, e)
		}
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.st.Log.AppendBatch(entries); err != nil {
		p.errors++
		return err
	}
	p.appends++
	for _, e := range entries {
		p.bytes[e.Type] += int64(e.PayloadSize())
		jobRecords[k].fold(rec, e)
	}
	if p.st.Log.SegmentCount() > p.compactEvery {
		if err := p.compactLocked(); err != nil {
			p.errors++
			log.Printf("server: compact: %v", err)
		}
	}
	return nil
}

// fold folds one of a job's records into rec: a state (its fingerprint, then
// its encoding) joins the states the checkpoints name, a checkpoint replaces
// the last, and a final retires both.
func (kind recordTypes) fold(rec *jobRecord, e store.Entry) {
	switch e.Type {
	case kind.final:
		rec.final, rec.checkpoint, rec.states, rec.staged = e.Value[0], nil, nil, nil
	case kind.checkpoint:
		rec.checkpoint = e.Value[0]
	case kind.state:
		if rec.states == nil {
			rec.states = make(map[string][]byte)
		}
		rec.states[string(e.Value[0])] = e.Value[1]
	}
}

// objects is the object store of a plan's search over rec from base; nil
// without a store, and the search then checkpoints inline.
func (p *persistor) objects(base *cacheEntry, rec *jobRecord) planner.ObjectStore {
	if p == nil {
		return nil
	}
	return baseFirst{base, jobObjects{rec}}
}

// execObjects is the object store of an execution from base: its last-good
// states go to the store's object half. nil without a store.
func (p *persistor) execObjects(base *cacheEntry) planner.ObjectStore {
	if p == nil {
		return nil
	}
	return baseFirst{base, p.st.Objects}
}

// baseFirst is a job's object store: the state under the base's fingerprint
// is the base itself, read from the cache entry the post holds — a Get
// encodes it, a Put is a no-op — and every other state goes to next. So no
// job journals its base, and a restart needs none: the job's ID hashes the
// base fingerprint, and its post rebuilds the base before it resumes.
type baseFirst struct {
	base *cacheEntry
	next planner.ObjectStore
}

func (o baseFirst) Put(fp string, data []byte) error {
	if fp == o.base.Fingerprint {
		return nil
	}
	return o.next.Put(fp, data)
}

func (o baseFirst) Get(fp string) ([]byte, bool, error) {
	if fp == o.base.Fingerprint {
		data, err := o.base.Snap.EncodeCanonical()
		return data, err == nil, err
	}
	return o.next.Get(fp)
}

// jobObjects is the object store of a plan's search over its record: Put
// stages a state for the job's next journal, which writes it unless the
// record holds it already, and Get reads the record's states — under the
// entry lock, which the search's caller holds. Neither copies a state:
// encodings are immutable.
type jobObjects struct {
	rec *jobRecord
}

func (o jobObjects) Put(fp string, data []byte) error {
	o.rec.staged = append(o.rec.staged, stagedState{fp, data})
	return nil
}

func (o jobObjects) Get(fp string) ([]byte, bool, error) {
	data, ok := o.rec.states[fp]
	return data, ok, nil
}

func (p *persistor) stats() (appends, fsyncs, compactions, errs int64, segments int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fsyncs = p.st.Log.Fsyncs() + p.st.Objects.Fsyncs()
	return p.appends, fsyncs, p.compactions, p.errors, p.st.Log.SegmentCount()
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

// recoveryStats counts what a boot-time recovery replayed.
type recoveryStats struct {
	Plans          int
	Execs          int
	TruncatedBytes int
}

// recover replays the WAL into the job tables: each job's record takes its
// records, and drive answers a finished job from its final and resumes an
// unfinished one from its checkpoint when its ID is next posted. Records of
// other types — retired or unknown — are skipped.
func (p *persistor) recover() (recoveryStats, error) {
	var rs recoveryStats
	err := p.st.Log.Replay(func(r store.Record) error {
		key, value, err := store.DecodeKV(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Index, err)
		}
		for k, kind := range jobRecords {
			isState := kind.state != 0 && r.Type == kind.state && len(value) >= fpLen
			if r.Type != kind.final && r.Type != kind.checkpoint && !isState {
				continue
			}
			value = bytes.Clone(value) // the table keeps it; the segment buffer goes
			e := entry(r.Type, key, value)
			if isState {
				e = entry(r.Type, key, value[:fpLen], value[fpLen:])
			}
			p.jobs[k].update(key, func(j *jobRecord) {
				p.mu.Lock()
				defer p.mu.Unlock()
				kind.fold(j, e)
			})
		}
		return nil
	})
	if err != nil {
		return rs, err
	}
	rs.TruncatedBytes = p.st.Log.TruncatedBytes()
	plans, _ := p.jobs[planJob].records()
	execs, _ := p.jobs[execJob].records()
	rs.Plans, rs.Execs = len(plans), len(execs)
	return rs, nil
}

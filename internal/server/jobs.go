package server

// The job driver. A plan search (POST /v1/plan) and a guarded execution
// (POST /v1/execute) are two kinds of one thing: a job that a repeat post
// for its ID continues, live between posts, journaled as latest-wins
// checkpoints and retired to its final response bytes. drive does that for
// both; what differs per kind is data (jobStore) and jobSteps.

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
)

// jobEntry is one job: the live job between requests, and its durable
// record — once it is done, the final response bytes alone (idempotent
// completion).
type jobEntry[J any] struct {
	// pins counts the requests holding the entry, under the store's mu: an
	// entry in use is never evicted, so a second post for its ID waits for
	// mu instead of driving the job alongside the first.
	pins int

	mu   sync.Mutex
	live *J
	// rec is written under mu and, with a store, the persistor's mu too.
	rec jobRecord
}

// jobStore holds the daemon's jobs of one kind by ID, LRU-bounded, and what
// drive needs to know about the kind.
type jobStore[J any] struct {
	kind jobKind
	// noun names the job in messages; verb names a failed advance.
	noun, verb string
	// unresumable counts journaled checkpoints that failed to resume (the
	// job restarted from its beginning).
	unresumable atomic.Int64

	mu      sync.Mutex
	entries *recency[*jobEntry[J]]
}

func newJobStore[J any](kind jobKind, noun, verb string, max int) *jobStore[J] {
	inUse := func(e *jobEntry[J]) bool { return e.pins > 0 }
	return &jobStore[J]{kind: kind, noun: noun, verb: verb, entries: newRecency(max, inUse)}
}

// get returns (creating if needed) the entry for an ID, pinned until the
// matching release. A new entry evicts the least recently used unpinned ones
// past the store's bound.
func (js *jobStore[J]) get(id string) *jobEntry[J] {
	js.mu.Lock()
	defer js.mu.Unlock()
	if e, ok := js.entries.touch(id); ok {
		e.pins++
		return e
	}
	e := &jobEntry[J]{pins: 1} // pinned before it is added, so it evicts only others
	js.entries.put(id, e)
	return e
}

func (js *jobStore[J]) release(e *jobEntry[J]) {
	js.mu.Lock()
	e.pins--
	js.mu.Unlock()
}

func (js *jobStore[J]) records() (ids []string, recs []*jobRecord) {
	js.mu.Lock()
	ids, entries := js.entries.list()
	js.mu.Unlock()
	for _, e := range entries {
		recs = append(recs, &e.rec)
	}
	return ids, recs
}

func (js *jobStore[J]) update(id string, f func(*jobRecord)) {
	e := js.get(id)
	defer js.release(e)
	e.mu.Lock()
	defer e.mu.Unlock()
	f(&e.rec)
}

// jobSteps are how one request starts, resumes and advances its job, each
// handed the job's record: the journal and object store close over it.
type jobSteps[J any] struct {
	start func(*jobRecord) (*J, error)
	// resume rebuilds the job from the record's checkpoint.
	resume func(*jobRecord) (*J, error)
	// advance drives the job as far as the request asks and renders the
	// response; final reports a terminal job. After an error the job may be
	// mid-step.
	advance func(*J, *jobRecord) (res result, final bool, err error)
}

// drive serves one post for job id. One request at a time advances a given
// job: concurrent posts for one ID serialize on its entry, each driving it
// further. A finished job answers from its final bytes. Otherwise the post
// continues the live job, else resumes it from its journaled checkpoint —
// after a restart or a failed post — else starts it.
func drive[J any](s *Server, js *jobStore[J], id string, steps jobSteps[J]) result {
	e := js.get(id)
	defer js.release(e)
	e.mu.Lock()
	defer e.mu.Unlock()
	rec := &e.rec
	if rec.final != nil {
		return result{status: http.StatusOK, body: rec.final}
	}
	if e.live == nil && rec.checkpoint != nil {
		if s.testHookResume != nil {
			s.testHookResume()
		}
		if live, err := steps.resume(rec); err == nil {
			e.live = live
		} else {
			// An unresumable checkpoint is an absent one: the final body is
			// a pure function of the job's identity, so the job restarts
			// and its next checkpoint replaces the bad record.
			log.Printf("server: %s %s: journaled checkpoint does not resume, restarting it: %v", js.noun, id, err)
			js.unresumable.Add(1)
		}
	}
	if e.live == nil {
		live, err := steps.start(rec)
		if err != nil {
			return errorResult(http.StatusInternalServerError, "start %s %s: %v", js.noun, id, err)
		}
		e.live = live
	}
	res, final, err := steps.advance(e.live, rec)
	// What the post journaled and a finished job's final commit as one batch
	// before it answers; the final retires the checkpoint and states.
	if err == nil && final {
		rec.post = append(rec.post, entry(jobRecords[js.kind].final, id, res.body))
	}
	if cerr := s.persist.flush(js.kind, rec); cerr != nil && err == nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	if err != nil || final {
		// A failed post drops the job, so the next post resumes from the last
		// committed checkpoint as it would after a crash.
		e.live = nil
	}
	if err != nil {
		return errorResult(http.StatusInternalServerError, "%s %s: %v", js.verb, id, err)
	}
	return res
}

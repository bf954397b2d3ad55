package planner

// Mid-search checkpointing. A Checkpoint freezes the beam between levels
// — the schedule prefixes, their scores, and the encoded fabric states
// they reach — together with the search parameters, the completed
// candidates, and the expansion memo. Resuming from a checkpoint makes
// the search observably indistinguishable from the uninterrupted run:
// not just the byte-identical winning schedule (candidate generation
// depends only on (seed, level, node index), and state fingerprints are
// recomputed from the serialized snapshots) but identical work counters
// too — the memo rides along precisely so a resumed search memo-hits
// where the uninterrupted one would have, keeping Stats deterministic
// across any kill/resume pacing. That is what lets centraliumd's
// crash-recovery conformance demand byte-identical final responses.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
)

// checkpointVersion guards the serialized layout.
const checkpointVersion = 1

// nodeCheckpoint is one serialized beam entry.
type nodeCheckpoint struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
	// State is the base64 of the node's encoded snapshot.
	State string `json:"state"`
}

// candidateCheckpoint is one serialized completed candidate.
type candidateCheckpoint struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
}

// memoCheckpoint is one serialized expansion-memo entry.
type memoCheckpoint struct {
	Key string      `json:"key"`
	Out StepOutcome `json:"out"`
	// Child is the base64 of the expansion's resulting state (empty for
	// migration-body entries, which cache only the outcome).
	Child string `json:"child,omitempty"`
}

// Checkpoint is a serializable between-levels search state.
type Checkpoint struct {
	Version   int                   `json:"version"`
	Params    Params                `json:"params"`
	Level     int                   `json:"level"`
	Done      bool                  `json:"done"`
	Base      string                `json:"base"`
	Beam      []nodeCheckpoint      `json:"beam"`
	Completed []candidateCheckpoint `json:"completed"`
	Memo      []memoCheckpoint      `json:"memo,omitempty"`
	Stats     Stats                 `json:"stats"`
}

// Checkpoint freezes the search. Call it between Step calls only.
func (s *Search) Checkpoint() ([]byte, error) {
	cp := Checkpoint{
		Version: checkpointVersion,
		Params:  s.p,
		Level:   s.level,
		Done:    s.done,
		Base:    base64.StdEncoding.EncodeToString(s.base),
		Stats:   s.stats,
	}
	for _, nd := range s.beam {
		cp.Beam = append(cp.Beam, nodeCheckpoint{
			Schedule: nd.sched.String(),
			Score:    nd.score,
			State:    base64.StdEncoding.EncodeToString(nd.state),
		})
	}
	for _, c := range s.completed {
		cp.Completed = append(cp.Completed, candidateCheckpoint{
			Schedule: c.Schedule.String(),
			Score:    c.Score,
		})
	}
	// The memo serializes sorted by key so checkpoint bytes are a pure
	// function of search state. Step never runs concurrently with
	// Checkpoint (both are between-levels operations), but the lock
	// keeps the read honest anyway.
	s.mu.Lock()
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		me := s.memo[k]
		mc := memoCheckpoint{Key: k, Out: me.out}
		if me.child != nil {
			mc.Child = base64.StdEncoding.EncodeToString(me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	s.mu.Unlock()
	// Compact: only ResumeSearch reads these, and most of the ~1 MB is
	// base64 that indenting would walk once more per level.
	return json.Marshal(cp)
}

// ResumeSearch rebuilds a search from a checkpoint. The resumed search
// continues from the frozen level and converges on the same winner as
// the uninterrupted run.
func ResumeSearch(data []byte) (*Search, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("planner: decode checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("planner: checkpoint version %d (want %d)", cp.Version, checkpointVersion)
	}
	base, err := base64.StdEncoding.DecodeString(cp.Base)
	if err != nil {
		return nil, fmt.Errorf("planner: checkpoint base state: %w", err)
	}
	s, err := newSearchFromState(base, cp.Params)
	if err != nil {
		return nil, err
	}
	s.level = cp.Level
	s.done = cp.Done
	s.stats = cp.Stats
	s.beam = s.beam[:0]
	for _, nc := range cp.Beam {
		sched, err := Parse(nc.Schedule)
		if err != nil {
			return nil, fmt.Errorf("planner: checkpoint beam: %w", err)
		}
		state, err := base64.StdEncoding.DecodeString(nc.State)
		if err != nil {
			return nil, fmt.Errorf("planner: checkpoint beam state: %w", err)
		}
		s.beam = append(s.beam, node{sched: sched, score: nc.Score, state: state, fp: fingerprint(state)})
	}
	for _, cc := range cp.Completed {
		sched, err := Parse(cc.Schedule)
		if err != nil {
			return nil, fmt.Errorf("planner: checkpoint candidate: %w", err)
		}
		s.completed = append(s.completed, Candidate{Schedule: sched, Score: cc.Score})
	}
	for _, mc := range cp.Memo {
		me := memoEntry{out: mc.Out}
		if mc.Child != "" {
			child, err := base64.StdEncoding.DecodeString(mc.Child)
			if err != nil {
				return nil, fmt.Errorf("planner: checkpoint memo state: %w", err)
			}
			me.child = child
			me.fp = fingerprint(child)
		}
		s.memo[mc.Key] = me
	}
	return s, nil
}

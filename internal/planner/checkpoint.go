package planner

// Mid-search checkpointing. A checkpoint freezes the beam between levels
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
//
// The serialized form is one self-contained binary container:
//
//	magic | uvarint len | manifest JSON | uvarint n | n × (uvarint len | state)
//
// The manifest is the Checkpoint struct; the base, every beam node and
// every memo child name their encoded snapshot by index into the state
// table that follows, and the table holds each distinct state once, raw.
// A beam node is some memo entry's child and levels share ancestors, so
// most references repeat: the table is built from the fingerprints the
// search already holds, and taking a checkpoint hashes nothing and costs
// one copy per distinct live state.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// checkpointVersion guards the serialized layout. Version 1 was a bare
// JSON object (see checkpoint_v1.go); ResumeSearch still reads it.
const checkpointVersion = 2

// checkpointMagic opens a container. No JSON document starts with it,
// which is how ResumeSearch tells the two versions apart.
const checkpointMagic = "CPLN"

// nodeCheckpoint is one serialized beam entry.
type nodeCheckpoint struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
	// State indexes the node's encoded snapshot in the state table.
	State int `json:"state"`
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
	// Child indexes the expansion's resulting state in the state table
	// (noState for migration-body entries, which cache only the outcome).
	Child int `json:"child"`
}

// noState is the state-table index of "no state".
const noState = -1

// Checkpoint is a serializable between-levels search state: the
// container's manifest.
type Checkpoint struct {
	Version   int                   `json:"version"`
	Params    Params                `json:"params"`
	Level     int                   `json:"level"`
	Done      bool                  `json:"done"`
	Base      int                   `json:"base"`
	Beam      []nodeCheckpoint      `json:"beam"`
	Completed []candidateCheckpoint `json:"completed"`
	Memo      []memoCheckpoint      `json:"memo,omitempty"`
	Stats     Stats                 `json:"stats"`
}

// Checkpoint freezes the search. Call it between Step calls only. The
// bytes are a pure function of the search state: the table fills in
// reference order (base, beam, memo by sorted key).
func (s *Search) Checkpoint() ([]byte, error) {
	// The state table: distinct states in first-reference order, keyed by
	// the fingerprints the search already computed.
	index := make(map[string]int)
	var states [][]byte
	ref := func(fp string, state []byte) int {
		i, ok := index[fp]
		if !ok {
			i = len(states)
			index[fp] = i
			states = append(states, state)
		}
		return i
	}
	cp := Checkpoint{
		Version: checkpointVersion,
		Params:  s.p,
		Level:   s.level,
		Done:    s.done,
		Base:    ref(s.baseFP, s.base),
		Stats:   s.stats,
	}
	for _, nd := range s.beam {
		cp.Beam = append(cp.Beam, nodeCheckpoint{
			Schedule: nd.sched.String(),
			Score:    nd.score,
			State:    ref(nd.fp, nd.state),
		})
	}
	for _, c := range s.completed {
		cp.Completed = append(cp.Completed, candidateCheckpoint{
			Schedule: c.Schedule.String(),
			Score:    c.Score,
		})
	}
	// Step never runs concurrently with Checkpoint (both are
	// between-levels operations), but the lock keeps the read honest anyway.
	s.mu.Lock()
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		me := s.memo[k]
		mc := memoCheckpoint{Key: k, Out: me.out, Child: noState}
		if me.child != nil {
			mc.Child = ref(me.fp, me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	s.mu.Unlock()
	return encodeContainer(cp, states)
}

// encodeContainer lays a manifest and its state table out as one container.
func encodeContainer(cp Checkpoint, states [][]byte) ([]byte, error) {
	manifest, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	size := len(checkpointMagic) + len(manifest) + (len(states)+2)*binary.MaxVarintLen64
	for _, st := range states {
		size += len(st)
	}
	out := make([]byte, 0, size)
	out = append(out, checkpointMagic...)
	out = binary.AppendUvarint(out, uint64(len(manifest)))
	out = append(out, manifest...)
	out = binary.AppendUvarint(out, uint64(len(states)))
	for _, st := range states {
		out = binary.AppendUvarint(out, uint64(len(st)))
		out = append(out, st...)
	}
	return out, nil
}

var errCheckpointTruncated = errors.New("planner: truncated checkpoint")

// readContainer splits a version-2 container into its manifest and state
// table. The states are views into data.
func readContainer(data []byte) (Checkpoint, [][]byte, error) {
	var cp Checkpoint
	rest := data[len(checkpointMagic):]
	// chunk takes the next length-prefixed run, checking the length against
	// the bytes actually left.
	chunk := func() ([]byte, error) {
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, errCheckpointTruncated
		}
		out := rest[n : n+int(l) : n+int(l)]
		rest = rest[n+int(l):]
		return out, nil
	}
	manifest, err := chunk()
	if err != nil {
		return cp, nil, err
	}
	if err := json.Unmarshal(manifest, &cp); err != nil {
		return cp, nil, fmt.Errorf("planner: decode checkpoint manifest: %w", err)
	}
	if cp.Version != checkpointVersion {
		return cp, nil, fmt.Errorf("planner: checkpoint version %d (want %d)", cp.Version, checkpointVersion)
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)-n) { // every entry costs at least its length byte
		return cp, nil, errCheckpointTruncated
	}
	rest = rest[n:]
	states := make([][]byte, count)
	for i := range states {
		if states[i], err = chunk(); err != nil {
			return cp, nil, err
		}
	}
	if len(rest) != 0 {
		return cp, nil, fmt.Errorf("planner: %d trailing bytes after the checkpoint's state table", len(rest))
	}
	return cp, states, nil
}

// ResumeSearch rebuilds a search from a checkpoint. The resumed search
// continues from the frozen level and converges on the same winner as
// the uninterrupted run. The search keeps one private copy of data and
// slices its states out of it; every distinct state's fingerprint is
// recomputed from its bytes, never trusted from the input.
func ResumeSearch(data []byte) (*Search, error) {
	var (
		cp     Checkpoint
		states [][]byte
		err    error
	)
	if bytes.HasPrefix(data, []byte(checkpointMagic)) {
		cp, states, err = readContainer(bytes.Clone(data))
	} else {
		cp, states, err = readV1(data)
	}
	if err != nil {
		return nil, err
	}
	fps := make([]string, len(states))
	for i, st := range states {
		fps[i] = fingerprint(st)
	}
	inTable := func(i int, what string) error {
		if i < 0 || i >= len(states) {
			return fmt.Errorf("planner: checkpoint %s names state %d of %d", what, i, len(states))
		}
		return nil
	}

	if err := inTable(cp.Base, "base"); err != nil {
		return nil, err
	}
	s, err := newSearchFromState(states[cp.Base], fps[cp.Base], cp.Params)
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
		if err := inTable(nc.State, "beam node"); err != nil {
			return nil, err
		}
		s.beam = append(s.beam, node{sched: sched, score: nc.Score, state: states[nc.State], fp: fps[nc.State]})
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
		if mc.Child != noState {
			if err := inTable(mc.Child, "memo entry"); err != nil {
				return nil, err
			}
			me.child, me.fp = states[mc.Child], fps[mc.Child]
		}
		s.memo[mc.Key] = me
	}
	return s, nil
}

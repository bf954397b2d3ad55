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
// The serialized form is one binary container:
//
//	magic | uvarint len | manifest JSON | uvarint n | n × (uvarint len | state)
//
// The manifest is the Checkpoint struct. It names the base, every beam node
// and every memo child by the fingerprint of its encoded state, which the
// search already holds, so taking a checkpoint hashes nothing. One writer
// lays the table after it out in one of two framings:
//
//   - inline: the table holds each distinct state the manifest names once,
//     raw, in first-reference order (base, beam, memo by sorted key). A
//     search without an object store writes it: a `plan -checkpoint` file,
//     a store.Journal, a test. It is self-contained.
//   - bare: the table is empty. A search with an object store Puts every
//     state the manifest names there first, and the store keeps each
//     fingerprint once, so a level journals its manifest and the states it
//     made, not every state it still names.
//
// One reader resolves each fingerprint through the table, then through the
// object store, and hashes every state it resolves: it never trusts a key.
// It refuses every other version, and any input without the magic, with
// ErrCheckpointVersion.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// checkpointVersion guards the manifest layout.
const checkpointVersion = 3

// checkpointMagic opens a container.
const checkpointMagic = "CPLN"

// ErrCheckpointVersion is the error a resume returns for a checkpoint that
// is not a version-3 container: another version, or no container magic at
// all (the version-1 JSON of older builds).
var ErrCheckpointVersion = errors.New("planner: unsupported checkpoint")

// nodeCheckpoint is one serialized beam entry.
type nodeCheckpoint struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
	// State is the fingerprint of the node's encoded snapshot.
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
	// Child is the fingerprint of the expansion's resulting state; empty
	// for migration-body entries, which cache only the outcome.
	Child string `json:"child,omitempty"`
}

// Checkpoint is a serializable between-levels search state: the
// container's manifest.
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

// Checkpoint freezes the search. Call it between Step calls only. The
// bytes are a pure function of the search state. A search with an object
// store Puts every state the manifest names into it and returns the bare
// framing; one without returns the inline framing.
func (s *Search) Checkpoint() ([]byte, error) {
	// The distinct states in first-reference order.
	seen := make(map[string]bool)
	var fps []string
	var states [][]byte
	ref := func(fp string, state []byte) string {
		if !seen[fp] {
			seen[fp] = true
			fps = append(fps, fp)
			states = append(states, state)
		}
		return fp
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
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		me := s.memo[k]
		mc := memoCheckpoint{Key: k, Out: me.out}
		if me.child != nil {
			mc.Child = ref(me.fp, me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	if s.objs != nil {
		for i, fp := range fps {
			if err := s.objs.Put(fp, states[i]); err != nil {
				return nil, fmt.Errorf("planner: object store: %w", err)
			}
		}
		states = nil
	}
	return encodeContainer(cp, states)
}

// encodeContainer lays a manifest and its state table out as one container.
func encodeContainer(manifest any, states [][]byte) ([]byte, error) {
	m, err := json.Marshal(manifest)
	if err != nil {
		return nil, err
	}
	size := len(checkpointMagic) + len(m) + (len(states)+2)*binary.MaxVarintLen64
	for _, st := range states {
		size += len(st)
	}
	out := make([]byte, 0, size)
	out = append(out, checkpointMagic...)
	out = binary.AppendUvarint(out, uint64(len(m)))
	out = append(out, m...)
	out = binary.AppendUvarint(out, uint64(len(states)))
	for _, st := range states {
		out = binary.AppendUvarint(out, uint64(len(st)))
		out = append(out, st...)
	}
	return out, nil
}

var errCheckpointTruncated = errors.New("planner: truncated checkpoint")

// readContainer splits a container into its manifest, in the current
// version's form, and its state table keyed by the fingerprint of each
// state's bytes. The states are views into data.
func readContainer(data []byte) (Checkpoint, map[string][]byte, error) {
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
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)-n) { // every entry costs at least its length byte
		return cp, nil, errCheckpointTruncated
	}
	rest = rest[n:]
	table := make(map[string][]byte, count)
	for range count {
		st, err := chunk()
		if err != nil {
			return cp, nil, err
		}
		table[fingerprint(st)] = st
	}
	if len(rest) != 0 {
		return cp, nil, fmt.Errorf("planner: %d trailing bytes after the checkpoint's state table", len(rest))
	}
	// Unmarshal decodes what it can past a field of the wrong type, so a
	// manifest of another version is refused by its version even where its
	// fields do not fit this one's.
	err = json.Unmarshal(manifest, &cp)
	var typeErr *json.UnmarshalTypeError
	if cp.Version != checkpointVersion && (err == nil || errors.As(err, &typeErr)) {
		return cp, nil, fmt.Errorf("%w: version %d (want %d)", ErrCheckpointVersion, cp.Version, checkpointVersion)
	}
	if err != nil {
		return cp, nil, fmt.Errorf("planner: decode checkpoint manifest: %w", err)
	}
	return cp, table, nil
}

// ResumeSearch rebuilds a search from a checkpoint that carries its states
// (the inline framing). The resumed search continues from the frozen level,
// converges on the same winner as the uninterrupted run, and checkpoints
// inline.
func ResumeSearch(data []byte) (*Search, error) {
	return ResumeSearchWith(data, nil)
}

// ResumeSearchWith is ResumeSearch for a search whose states live in objs:
// a fingerprint the checkpoint's table lacks is read from objs, and the
// resumed search checkpoints bare into it. The search keeps one private
// copy of data and slices its table's states out of it; every state's
// fingerprint is recomputed from its bytes, never trusted from the input.
func ResumeSearchWith(data []byte, objs ObjectStore) (*Search, error) {
	if !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("%w: no container magic", ErrCheckpointVersion)
	}
	cp, table, err := readContainer(bytes.Clone(data))
	if err != nil {
		return nil, err
	}
	// state resolves the state the manifest names by fp.
	state := func(fp, what string) ([]byte, error) {
		if st, ok := table[fp]; ok {
			return st, nil
		}
		if objs == nil {
			return nil, fmt.Errorf("planner: checkpoint %s names state %s, which its table lacks (no object store)", what, short(fp))
		}
		st, ok, err := objs.Get(fp)
		if err != nil {
			return nil, fmt.Errorf("planner: object store: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("planner: checkpoint %s names state %s, missing from the object store", what, short(fp))
		}
		if got := fingerprint(st); got != fp {
			return nil, fmt.Errorf("planner: object %s holds state %s", short(fp), short(got))
		}
		table[fp] = st
		return st, nil
	}

	base, err := state(cp.Base, "base")
	if err != nil {
		return nil, err
	}
	s, err := newSearchFromState(base, cp.Base, cp.Params, objs)
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
		st, err := state(nc.State, "beam node")
		if err != nil {
			return nil, err
		}
		s.beam = append(s.beam, node{sched: sched, score: nc.Score, state: st, fp: nc.State})
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
			if me.child, err = state(mc.Child, "memo entry"); err != nil {
				return nil, err
			}
			me.fp = mc.Child
		}
		s.memo[mc.Key] = me
	}
	return s, nil
}

// short abbreviates a fingerprint for messages.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

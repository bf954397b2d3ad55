package planner

import (
	"encoding/base64"
	"encoding/json"
	"maps"
	"sort"
)

// sortedMemoKeys returns the search's memo keys in checkpoint order.
func (s *Search) sortedMemoKeys() []string {
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkpointV1 is the version-1 checkpoint writer, kept as the fixture for
// the tests that hold ResumeSearch to reading what older builds wrote.
func (s *Search) checkpointV1() ([]byte, error) {
	b64 := base64.StdEncoding.EncodeToString
	cp := checkpointV1{
		Version: 1,
		Params:  s.p,
		Level:   s.level,
		Done:    s.done,
		Base:    b64(s.base),
		Stats:   s.stats,
	}
	for _, nd := range s.beam {
		cp.Beam = append(cp.Beam, v1Node{Schedule: nd.sched.String(), Score: nd.score, State: b64(nd.state)})
	}
	for _, c := range s.completed {
		cp.Completed = append(cp.Completed, candidateCheckpoint{Schedule: c.Schedule.String(), Score: c.Score})
	}
	for _, k := range s.sortedMemoKeys() {
		me := s.memo[k]
		mc := v1Memo{Key: k, Out: me.out}
		if me.child != nil {
			mc.Child = b64(me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	return json.Marshal(cp)
}

// checkpointV2 is the version-2 container writer: the current layout with
// a manifest that names states by table index. Kept as the fixture for the
// tests that hold ResumeSearch to reading what older builds wrote.
func (s *Search) checkpointV2() ([]byte, error) {
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
	cp := checkpointV2{
		Version: 2,
		Params:  s.p,
		Level:   s.level,
		Done:    s.done,
		Base:    ref(s.baseFP, s.base),
		Stats:   s.stats,
	}
	for _, nd := range s.beam {
		cp.Beam = append(cp.Beam, v2Node{Schedule: nd.sched.String(), Score: nd.score, State: ref(nd.fp, nd.state)})
	}
	for _, c := range s.completed {
		cp.Completed = append(cp.Completed, candidateCheckpoint{Schedule: c.Schedule.String(), Score: c.Score})
	}
	for _, k := range s.sortedMemoKeys() {
		me := s.memo[k]
		mc := v2Memo{Key: k, Out: me.out, Child: v2NoState}
		if me.child != nil {
			mc.Child = ref(me.fp, me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	return encodeContainer(cp, states)
}

// memObjects is an in-memory ObjectStore that counts its Puts.
type memObjects struct {
	objs map[string][]byte
	puts int
}

func newMemObjects() *memObjects { return &memObjects{objs: make(map[string][]byte)} }

func (m *memObjects) Put(key string, data []byte) error {
	m.puts++
	if _, ok := m.objs[key]; !ok {
		m.objs[key] = data
	}
	return nil
}

func (m *memObjects) Get(key string) ([]byte, bool, error) {
	data, ok := m.objs[key]
	return data, ok, nil
}

// clone returns a store holding the same objects.
func (m *memObjects) clone() *memObjects { return &memObjects{objs: maps.Clone(m.objs)} }

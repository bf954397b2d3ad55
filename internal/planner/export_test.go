package planner

import (
	"encoding/base64"
	"encoding/json"
	"sort"
)

// checkpointV1 writes the version-1 checkpoint writer, kept as the fixture for
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
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		me := s.memo[k]
		mc := v1Memo{Key: k, Out: me.out}
		if me.child != nil {
			mc.Child = b64(me.child)
		}
		cp.Memo = append(cp.Memo, mc)
	}
	return json.Marshal(cp)
}

package planner

// The readers of older checkpoints. Nothing writes them any more;
// ResumeSearch reads each into the current manifest, its states named by
// fingerprint, so WALs and `plan -checkpoint` files from an older build
// resume to the byte-identical winner.
//
//   - Version 2 is the current container with a manifest that names each
//     state by its index in the table.
//   - Version 1 was one JSON object (compact, or indented by builds older
//     still) that carried the base, every beam state and every memo child
//     as its own base64 string.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
)

type v2Node struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
	State    int    `json:"state"`
}

type v2Memo struct {
	Key   string      `json:"key"`
	Out   StepOutcome `json:"out"`
	Child int         `json:"child"`
}

type checkpointV2 struct {
	Version   int                   `json:"version"`
	Params    Params                `json:"params"`
	Level     int                   `json:"level"`
	Done      bool                  `json:"done"`
	Base      int                   `json:"base"`
	Beam      []v2Node              `json:"beam"`
	Completed []candidateCheckpoint `json:"completed"`
	Memo      []v2Memo              `json:"memo,omitempty"`
	Stats     Stats                 `json:"stats"`
}

// v2NoState is the version-2 table index of "no state".
const v2NoState = -1

// readV2 decodes a version-2 manifest whose table's states have the
// fingerprints fps, in table order.
func readV2(manifest []byte, fps []string) (Checkpoint, error) {
	var v2 checkpointV2
	if err := json.Unmarshal(manifest, &v2); err != nil {
		return Checkpoint{}, err
	}
	var indexErr error
	fp := func(i int, what string) string {
		if i < 0 || i >= len(fps) {
			if indexErr == nil {
				indexErr = fmt.Errorf("checkpoint %s names state %d of %d", what, i, len(fps))
			}
			return ""
		}
		return fps[i]
	}
	cp := Checkpoint{
		Version:   checkpointVersion,
		Params:    v2.Params,
		Level:     v2.Level,
		Done:      v2.Done,
		Base:      fp(v2.Base, "base"),
		Completed: v2.Completed,
		Stats:     v2.Stats,
	}
	for _, nc := range v2.Beam {
		cp.Beam = append(cp.Beam, nodeCheckpoint{Schedule: nc.Schedule, Score: nc.Score, State: fp(nc.State, "beam node")})
	}
	for _, mc := range v2.Memo {
		me := memoCheckpoint{Key: mc.Key, Out: mc.Out}
		if mc.Child != v2NoState {
			me.Child = fp(mc.Child, "memo entry")
		}
		cp.Memo = append(cp.Memo, me)
	}
	return cp, indexErr
}

type v1Node struct {
	Schedule string `json:"schedule"`
	Score    Score  `json:"score"`
	State    string `json:"state"`
}

type v1Memo struct {
	Key   string      `json:"key"`
	Out   StepOutcome `json:"out"`
	Child string      `json:"child,omitempty"`
}

type checkpointV1 struct {
	Version   int                   `json:"version"`
	Params    Params                `json:"params"`
	Level     int                   `json:"level"`
	Done      bool                  `json:"done"`
	Base      string                `json:"base"`
	Beam      []v1Node              `json:"beam"`
	Completed []candidateCheckpoint `json:"completed"`
	Memo      []v1Memo              `json:"memo,omitempty"`
	Stats     Stats                 `json:"stats"`
}

// readV1 decodes a version-1 checkpoint into a manifest and its state
// table.
func readV1(data []byte) (Checkpoint, map[string][]byte, error) {
	var v1 checkpointV1
	if err := json.Unmarshal(data, &v1); err != nil {
		return Checkpoint{}, nil, fmt.Errorf("planner: decode checkpoint: %w", err)
	}
	if v1.Version != 1 {
		return Checkpoint{}, nil, fmt.Errorf("planner: JSON checkpoint version %d (want 1)", v1.Version)
	}
	table := make(map[string][]byte)
	var decodeErr error
	add := func(what, b64 string) string {
		state, err := base64.StdEncoding.DecodeString(b64)
		if err != nil && decodeErr == nil {
			decodeErr = fmt.Errorf("planner: checkpoint %s state: %w", what, err)
		}
		fp := fingerprint(state)
		table[fp] = state
		return fp
	}
	cp := Checkpoint{
		Version:   checkpointVersion,
		Params:    v1.Params,
		Level:     v1.Level,
		Done:      v1.Done,
		Base:      add("base", v1.Base),
		Completed: v1.Completed,
		Stats:     v1.Stats,
	}
	for _, nc := range v1.Beam {
		cp.Beam = append(cp.Beam, nodeCheckpoint{Schedule: nc.Schedule, Score: nc.Score, State: add("beam", nc.State)})
	}
	for _, mc := range v1.Memo {
		me := memoCheckpoint{Key: mc.Key, Out: mc.Out}
		if mc.Child != "" {
			me.Child = add("memo", mc.Child)
		}
		cp.Memo = append(cp.Memo, me)
	}
	return cp, table, decodeErr
}

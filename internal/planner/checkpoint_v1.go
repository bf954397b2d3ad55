package planner

// The version-1 checkpoint reader. Version 1 was one JSON object (compact,
// or indented by builds older still) that carried the base, every beam
// state and every memo child as its own base64 string. Nothing writes it
// any more; ResumeSearch reads it into the version-2 manifest and state
// table so WALs and `plan -checkpoint` files from an older build resume
// to the byte-identical winner.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
)

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

// readV1 decodes a version-1 checkpoint into a manifest and state table,
// one table entry per reference.
func readV1(data []byte) (Checkpoint, [][]byte, error) {
	var v1 checkpointV1
	if err := json.Unmarshal(data, &v1); err != nil {
		return Checkpoint{}, nil, fmt.Errorf("planner: decode checkpoint: %w", err)
	}
	if v1.Version != 1 {
		return Checkpoint{}, nil, fmt.Errorf("planner: JSON checkpoint version %d (want 1)", v1.Version)
	}
	var states [][]byte
	var decodeErr error
	add := func(what, b64 string) int {
		state, err := base64.StdEncoding.DecodeString(b64)
		if err != nil && decodeErr == nil {
			decodeErr = fmt.Errorf("planner: checkpoint %s state: %w", what, err)
		}
		states = append(states, state)
		return len(states) - 1
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
		child := noState
		if mc.Child != "" {
			child = add("memo", mc.Child)
		}
		cp.Memo = append(cp.Memo, memoCheckpoint{Key: mc.Key, Out: mc.Out, Child: child})
	}
	return cp, states, decodeErr
}

package guard

import (
	"encoding/json"
	"fmt"

	"centralium/internal/planner"
)

// Journal persists guard checkpoints, latest-wins: the planner's journal
// interface (one SaveProgress method, which internal/store's WAL-backed
// journal satisfies). The level passed to SaveProgress is the wave index,
// advisory only.
type Journal = planner.Journal

// JournalFunc adapts a function to the Journal interface.
type JournalFunc = planner.JournalFunc

// ObjectStore persists the guard's last-good snapshots, keyed by
// fingerprint: the planner's object store interface, which
// internal/store's content-addressed SnapStore satisfies. A campaign
// without one (nil) runs, pauses and continues in the process that holds
// its Execution; only a resume from checkpoint bytes needs one.
type ObjectStore = planner.ObjectStore

// Checkpoint is the guard record journaled before every wave and after
// every rollback and terminal decision. It is self-contained: a resumed
// process needs only the checkpoint, the campaign definition, and the
// object store holding the referenced snapshots to drive the execution
// to the byte-identical terminal state.
type Checkpoint struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	// Waves is the campaign's total wave count (resume sanity check).
	Waves int `json:"waves"`
	// Wave and Attempt name the next attempt to execute.
	Wave    int `json:"wave"`
	Attempt int `json:"attempt"`
	// Retries and Rollbacks carry the counters across a resume.
	Retries   int `json:"retries"`
	Rollbacks int `json:"rollbacks"`
	// Started records that Wave's start line is already in Log (the
	// checkpoint was taken inside the wave, not at its boundary), so a
	// resumed run must not re-emit it.
	Started bool `json:"started,omitempty"`
	// LastGood is the fingerprint of the pre-wave snapshot in the object
	// store; the resumed run restores it as its working state.
	LastGood string `json:"last_good"`
	// Log is the decision log so far.
	Log string `json:"log"`

	// Terminal state: Done marks a finished campaign, Aborted its
	// outcome class, FinalFP the terminal snapshot; an aborted campaign's
	// Quarantined and Violations complete its incident report, whose other
	// facts are the fields above (Checkpoint.incident).
	Done        bool        `json:"done,omitempty"`
	Aborted     bool        `json:"aborted,omitempty"`
	Quarantined []string    `json:"quarantined,omitempty"`
	FinalFP     string      `json:"final_fp,omitempty"`
	Violations  []Violation `json:"violations,omitempty"`
}

// checkpointVersion guards the JSON schema and the measurement cadence its
// decision log was written under: version 1 records came from campaigns
// that settled once per wave, so a resume would finish as a mix of two
// cadences and is refused.
const checkpointVersion = 2

// Encode renders the checkpoint.
func (cp *Checkpoint) Encode() ([]byte, error) {
	out, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("guard: encode checkpoint: %w", err)
	}
	return out, nil
}

// DecodeCheckpoint parses and validates a journaled guard record.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("guard: decode checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("guard: checkpoint version %d unsupported", cp.Version)
	}
	if cp.Waves < 0 || cp.Wave < 0 || cp.Attempt < 0 || (!cp.Done && cp.Wave >= cp.Waves && cp.Waves > 0) {
		return nil, fmt.Errorf("guard: checkpoint wave %d/%d attempt %d out of range", cp.Wave, cp.Waves, cp.Attempt)
	}
	if cp.LastGood == "" && !cp.Done {
		return nil, fmt.Errorf("guard: checkpoint has no last-good fingerprint")
	}
	// A campaign aborts on violations, so an aborted record always carries
	// the evidence its incident report is rebuilt from.
	if cp.Aborted && len(cp.Violations) == 0 {
		return nil, fmt.Errorf("guard: aborted checkpoint carries no violations")
	}
	return cp, nil
}

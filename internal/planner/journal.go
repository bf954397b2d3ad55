package planner

// Journaled search progress. StepJournaled is Step plus a durable
// checkpoint of the between-levels state through a caller-supplied
// Journal — the interface internal/store's WAL-backed journal satisfies
// — so a search interrupted anywhere (deadline, crash, kill -9) resumes
// from its last completed level instead of from scratch, and the resumed
// run converges on the byte-identical winner (the Checkpoint/ResumeSearch
// determinism, held per level instead of per explicit save). A search
// given an object store (NewSearchWith, ResumeSearchWith) journals the bare
// framing: each level's checkpoint Puts the states it names into the store
// before the journal sees the manifest, so a store that shares the
// journal's log can make both durable together.

import (
	"context"
	"fmt"
)

// Journal persists one search's between-level checkpoints. The latest
// saved checkpoint wins on recovery. The journal owns the checkpoint slice
// after the call: the caller hands over a fresh one each time and never
// writes it again, so a journal may keep it without a copy.
type Journal interface {
	// SaveProgress records the state after completing the given level.
	// The checkpoint bytes are self-contained (ResumeSearch input); the
	// level is advisory, for logging and metrics.
	SaveProgress(level int, checkpoint []byte) error
}

// ObjectStore holds encoded fabric states by fingerprint: the states a
// search's checkpoints name, or a guarded campaign's last-good snapshots.
// internal/store's content-addressed SnapStore satisfies it, and so does
// the daemon's per-plan state journal. Put must be idempotent for a key,
// and may keep data without a copy: an encoding handed to it is never
// written again. A reader never trusts a key: it hashes what Get returns.
type ObjectStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, bool, error)
}

// JournalFunc adapts a function to the Journal interface.
type JournalFunc func(level int, checkpoint []byte) error

// SaveProgress implements Journal.
func (f JournalFunc) SaveProgress(level int, checkpoint []byte) error {
	return f(level, checkpoint)
}

// StepJournaled advances the search one level and journals the
// resulting state. The checkpoint is taken between levels — the only
// point Checkpoint is valid — so a journal written by StepJournaled is
// always resumable.
func (s *Search) StepJournaled(j Journal) (done bool, err error) {
	done, err = s.Step()
	if err != nil {
		return false, err
	}
	cp, err := s.Checkpoint()
	if err != nil {
		return false, fmt.Errorf("planner: journal checkpoint: %w", err)
	}
	if err := j.SaveProgress(s.level, cp); err != nil {
		return false, fmt.Errorf("planner: journal save: %w", err)
	}
	return done, nil
}

// Drive advances the search up to maxLevels beam levels — every remaining
// level when maxLevels is not positive — and reports whether it is done.
// With a journal each level is a StepJournaled; without one, a Step, which
// encodes no checkpoint. It stops between levels once ctx expires, and the
// next Drive continues from there. After an error the search may be
// mid-level: discard it and resume from the journal.
func (s *Search) Drive(ctx context.Context, maxLevels int, j Journal) (done bool, err error) {
	done = s.done
	for levels := 0; !done && (maxLevels <= 0 || levels < maxLevels) && ctx.Err() == nil; levels++ {
		if j != nil {
			done, err = s.StepJournaled(j)
		} else {
			done, err = s.Step()
		}
		if err != nil {
			return false, err
		}
	}
	return done, nil
}

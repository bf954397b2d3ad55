package planner

// Journaled-search determinism: interrupting a search at any journaled
// level and resuming from the journal's latest checkpoint must converge
// on the byte-identical winner of the uninterrupted run.

import (
	"context"
	"fmt"
	"testing"
)

// memJournal keeps every saved checkpoint, latest last.
type memJournal struct {
	levels []int
	saves  [][]byte
}

func (m *memJournal) SaveProgress(level int, checkpoint []byte) error {
	m.levels = append(m.levels, level)
	m.saves = append(m.saves, append([]byte(nil), checkpoint...))
	return nil
}

// runJournaled drives s to completion under j and returns its result.
func runJournaled(s *Search, j Journal) (*Result, error) {
	if _, err := s.Drive(context.Background(), 0, j); err != nil {
		return nil, err
	}
	return s.Result()
}

func TestDriveJournaledMatchesPlain(t *testing.T) {
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	p.Beam = 2
	p.RandomCands = -1

	want, err := Plan(snap, p)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}

	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	j := &memJournal{}
	got, err := runJournaled(s, j)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	if got.Winner.String() != want.Winner.String() || got.Score != want.Score {
		t.Fatalf("journaled winner diverged: %s (%v) vs %s (%v)",
			got.Winner, got.Score, want.Winner, want.Score)
	}
	if len(j.saves) == 0 {
		t.Fatalf("journal recorded no progress")
	}
	for i := 1; i < len(j.levels); i++ {
		if j.levels[i] <= j.levels[i-1] {
			t.Fatalf("journal levels not increasing: %v", j.levels)
		}
	}
}

// TestResumeFromEveryJournaledLevel kills the search after each level
// and resumes from the journal: every resumption lands on the same
// winner, score, and stats as the uninterrupted run.
func TestResumeFromEveryJournaledLevel(t *testing.T) {
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	p.Beam = 2
	p.RandomCands = -1

	ref, err := NewSearch(snap, p)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	j := &memJournal{}
	want, err := runJournaled(ref, j)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(j.saves) < 2 {
		t.Fatalf("search too shallow to interrupt (%d levels)", len(j.saves))
	}
	for i, cp := range j.saves {
		t.Run(fmt.Sprintf("killed-after-level-%d", j.levels[i]), func(t *testing.T) {
			s, err := ResumeSearch(cp)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			got, err := runJournaled(s, &memJournal{})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got.Winner.String() != want.Winner.String() || got.Score != want.Score {
				t.Fatalf("resumed winner diverged: %s (%v) vs %s (%v)",
					got.Winner, got.Score, want.Winner, want.Score)
			}
			// The memo rides in the checkpoint, so even the work counters
			// are indistinguishable from the uninterrupted run.
			if got.Stats != want.Stats {
				t.Fatalf("resumed stats diverged: %+v vs %+v", got.Stats, want.Stats)
			}
		})
	}
}

// TestStepJournaledSurfacesJournalErrors: a failing journal aborts the
// step rather than silently continuing without durability.
func TestStepJournaledSurfacesJournalErrors(t *testing.T) {
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	p.Beam = 2
	p.RandomCands = -1
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	boom := JournalFunc(func(int, []byte) error { return fmt.Errorf("disk full") })
	if _, err := s.StepJournaled(boom); err == nil {
		t.Fatalf("journal failure not surfaced")
	}
}

// TestDrivePacing: Drive advances at most maxLevels levels, none once its
// context has expired, and a search driven in paced legs ends where an
// unpaced one does.
func TestDrivePacing(t *testing.T) {
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	p.Beam = 2
	p.RandomCands = -1
	want, err := Plan(snap, p)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if done, err := s.Drive(expired, 0, nil); err != nil || done || s.Level() != 0 {
		t.Fatalf("Drive under an expired context: done %v, level %d, err %v", done, s.Level(), err)
	}
	for legs := 1; ; legs++ {
		done, err := s.Drive(context.Background(), 1, &memJournal{})
		if err != nil {
			t.Fatalf("leg %d: %v", legs, err)
		}
		if done {
			break
		}
		if s.Level() != legs {
			t.Fatalf("after %d one-level legs the search is at level %d", legs, s.Level())
		}
	}
	got, err := s.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if got.Winner.String() != want.Winner.String() || got.Score != want.Score || got.Stats != want.Stats {
		t.Fatalf("paced search diverged: %s (%v, %+v) vs %s (%v, %+v)",
			got.Winner, got.Score, got.Stats, want.Winner, want.Score, want.Stats)
	}
}

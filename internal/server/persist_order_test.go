package server

import (
	"fmt"
	"sort"
	"testing"

	"centralium/internal/store"
)

// TestRecoveryKeepsMostRecentlyRecorded pins which plans and executions
// survive a restart when more were recorded than the LRU-bounded serving
// stores hold: the most recently recorded PlanStoreSize of each, the same
// ones on every boot. (Recovery used to feed the stores in Go map order, so
// the survivors were random and a finished campaign could re-run from wave
// 0 after a restart.)
func TestRecoveryKeepsMostRecentlyRecorded(t *testing.T) {
	type rec struct {
		typ uint8
		id  string
	}
	final := func(ids ...string) []rec {
		var out []rec
		for _, id := range ids {
			out = append(out, rec{recExecCheckpoint, id}, rec{recExecFinal, id})
		}
		return out
	}
	cases := []struct {
		name    string
		records []rec
		// compactAfter, when > 0, forces a log compaction once that many
		// records are in.
		compactAfter int
		wantExecs    []string
		wantPlans    []string
	}{
		{
			name:      "five executions in order",
			records:   final("e1", "e2", "e3", "e4", "e5"),
			wantExecs: []string{"e4", "e5"},
		},
		{
			name:      "an early execution recorded again last",
			records:   append(final("e1", "e2", "e3", "e4", "e5"), rec{recExecCheckpoint, "e2"}),
			wantExecs: []string{"e2", "e5"},
		},
		{
			name:         "recency survives compaction",
			records:      append(final("e5", "e4", "e3", "e2", "e1"), rec{recExecFinal, "e4"}),
			compactAfter: 10,
			wantExecs:    []string{"e1", "e4"},
		},
		{
			name: "plans and executions interleaved",
			records: []rec{
				{recPlanCheckpoint, "p1"}, {recExecFinal, "e1"}, {recPlanCheckpoint, "p2"},
				{recExecFinal, "e2"}, {recPlanFinal, "p3"}, {recExecFinal, "e3"},
				{recPlanFinal, "p1"}, {recExecFinal, "e4"}, {recExecFinal, "e5"},
			},
			wantExecs: []string{"e4", "e5"},
			wantPlans: []string{"p1", "p3"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := func(st *store.Store) Config { return Config{Workers: 1, PlanStoreSize: 2, Store: st} }

			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			s := New(cfg(st))
			for i, r := range tc.records {
				body := []byte(fmt.Sprintf("%s record %d", r.id, i))
				if err := s.persist.append(r.typ, r.id, body); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if i+1 == tc.compactAfter {
					s.persist.mu.Lock()
					err := s.persist.compactLocked()
					s.persist.mu.Unlock()
					if err != nil {
						t.Fatalf("compact: %v", err)
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close store: %v", err)
			}

			for cycle := 0; cycle < 10; cycle++ {
				st, err := store.Open(dir, store.Options{})
				if err != nil {
					t.Fatalf("cycle %d: reopen store: %v", cycle, err)
				}
				s, err := Open(cfg(st))
				if err != nil {
					t.Fatalf("cycle %d: open server: %v", cycle, err)
				}
				var execs, plans []string
				for id, ee := range s.execs.execs {
					if ee.checkpoint == nil && ee.final == nil {
						t.Errorf("cycle %d: execution %s recovered empty", cycle, id)
					}
					execs = append(execs, id)
				}
				for id := range s.plans.plans {
					plans = append(plans, id)
				}
				sort.Strings(execs)
				sort.Strings(plans)
				if fmt.Sprint(execs) != fmt.Sprint(tc.wantExecs) {
					t.Errorf("cycle %d: surviving executions %v, want %v", cycle, execs, tc.wantExecs)
				}
				if fmt.Sprint(plans) != fmt.Sprint(tc.wantPlans) {
					t.Errorf("cycle %d: surviving plans %v, want %v", cycle, plans, tc.wantPlans)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("cycle %d: close store: %v", cycle, err)
				}
			}
		})
	}
}

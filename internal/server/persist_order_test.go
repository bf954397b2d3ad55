package server

import (
	"fmt"
	"net/http/httptest"
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
				for _, k := range []jobKind{planJob, execJob} {
					for _, id := range mirrorIDs(s.persist, k) {
						if cp, final := s.persist.job(k, id); cp == nil && final == nil {
							t.Errorf("cycle %d: job %s recovered empty", cycle, id)
						}
					}
				}
				execs, plans := mirrorIDs(s.persist, execJob), mirrorIDs(s.persist, planJob)
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

// mirrorIDs lists the IDs of the jobs of kind k in p's mirror, least
// recently recorded first.
func mirrorIDs(p *persistor, k jobKind) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []string
	p.jobs[k].each(func(id string, _ *jobMirror) error {
		ids = append(ids, id)
		return nil
	})
	return ids
}

// walRecordTypes reopens dir's store and counts its WAL records by type and
// key.
func walRecordTypes(t *testing.T, dir string) map[uint8]map[string]int {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st.Close()
	counts := make(map[uint8]map[string]int)
	err = st.Log.Replay(func(r store.Record) error {
		key, _, err := store.DecodeKV(r.Data)
		if err != nil {
			return err
		}
		if counts[r.Type] == nil {
			counts[r.Type] = make(map[string]int)
		}
		counts[r.Type][key]++
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return counts
}

// TestFinishedPlanDropsMirrorCheckpoint: once a plan's final response is
// recorded its resume checkpoint and the states it names are dead weight —
// the mirror must not hold them, a compaction must not rewrite them, and a
// daemon recovered from the compacted log must still answer with the
// byte-identical final. (The mirror used to keep the last ~865 KB
// checkpoint of every finished plan for the life of the process and copy it
// into every compacted log.)
func TestFinishedPlanDropsMirrorCheckpoint(t *testing.T) {
	wantFinal, wantWhatIf := referenceRun(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.body != wantWhatIf {
		t.Fatalf("whatif diverged: %s", wi.body)
	}
	for i := 0; ; i++ { // one journaled checkpoint per level, then the final
		rec := postPlan(t, ts.Client(), ts.URL, recStepBody)
		if decodePlan(t, rec).Done {
			if rec.body != wantFinal {
				t.Fatalf("plan diverged: %s", rec.body)
			}
			break
		}
		if i > 64 {
			t.Fatal("plan never finished")
		}
	}
	ts.Close()

	for _, id := range mirrorIDs(s.persist, planJob) {
		if cp, final := s.persist.job(planJob, id); final != nil && cp != nil {
			t.Errorf("mirror holds a %d-byte checkpoint for finished plan %s", len(cp), id)
		}
	}
	if n := s.persist.liveStates(); n != 0 {
		t.Errorf("mirror holds %d states after the only plan finished", n)
	}
	s.persist.mu.Lock()
	err = s.persist.compactLocked()
	s.persist.mu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recs := walRecordTypes(t, dir)
	if len(recs[recPlanFinal]) != 1 {
		t.Fatalf("compacted log holds %d plan finals, want 1", len(recs[recPlanFinal]))
	}
	for id := range recs[recPlanFinal] {
		if n := recs[recPlanCheckpoint][id]; n != 0 {
			t.Errorf("compacted log holds %d checkpoint record(s) for finished plan %s", n, id)
		}
		if n := recs[recPlanState][id]; n != 0 {
			t.Errorf("compacted log holds %d state record(s) for finished plan %s", n, id)
		}
	}
	checkRecovered(t, dir, wantFinal, wantWhatIf)
}

// TestMirrorBoundedByPlanStoreSize: the mirror — and so every compacted log
// — holds the most recently recorded PlanStoreSize plans and executions, not
// every one the daemon ever served.
func TestMirrorBoundedByPlanStoreSize(t *testing.T) {
	const size = 4
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, PlanStoreSize: size, Store: st})
	var wantPlans, wantExecs []string
	for i := 0; i < size+10; i++ {
		plan, exec := fmt.Sprintf("p%02d", i), fmt.Sprintf("e%02d", i)
		for _, r := range []struct {
			typ uint8
			id  string
		}{{recPlanCheckpoint, plan}, {recExecCheckpoint, exec}, {recPlanFinal, plan}, {recExecFinal, exec}} {
			if err := s.persist.append(r.typ, r.id, []byte(r.id+" body")); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if i >= 10 {
			wantPlans, wantExecs = append(wantPlans, plan), append(wantExecs, exec)
		}
	}
	plans, execs := mirrorIDs(s.persist, planJob), mirrorIDs(s.persist, execJob)
	s.persist.mu.Lock()
	err = s.persist.compactLocked()
	s.persist.mu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if fmt.Sprint(plans) != fmt.Sprint(wantPlans) || fmt.Sprint(execs) != fmt.Sprint(wantExecs) {
		t.Errorf("mirror holds plans %v, executions %v; want %v, %v", plans, execs, wantPlans, wantExecs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs := walRecordTypes(t, dir)
	if len(recs[recPlanFinal]) != size || len(recs[recExecFinal]) != size {
		t.Errorf("compacted log holds %d plan and %d execution finals, want %d each",
			len(recs[recPlanFinal]), len(recs[recExecFinal]), size)
	}
}

// TestCompactionKeepsLivePlanResumable: a compaction rewrites an unfinished
// plan as its states, then the one checkpoint that names them, and a daemon
// recovered from that log resumes the plan — not restarts it — to the
// byte-identical final.
func TestCompactionKeepsLivePlanResumable(t *testing.T) {
	wantFinal, _ := referenceRun(t)
	dir := t.TempDir()
	var resumes int
	s, ts, stop := openDurable(t, dir, &resumes)
	for i := 0; i < 2; i++ {
		if decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody)).Done {
			t.Fatal("plan finished before the compaction")
		}
	}
	s.persist.mu.Lock()
	err := s.persist.compactLocked()
	s.persist.mu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	stop()

	var states, checkpoints int
	for _, r := range walRecords(t, dir) {
		switch r.typ {
		case recPlanState:
			if checkpoints > 0 {
				t.Fatal("the compacted log holds a state record behind the plan's checkpoint")
			}
			states++
		case recPlanCheckpoint:
			checkpoints++
		}
	}
	if states == 0 || checkpoints != 1 {
		t.Fatalf("the compacted log holds %d states and %d checkpoints of the live plan, want some and 1", states, checkpoints)
	}

	_, ts, stop = openDurable(t, dir, &resumes)
	defer stop()
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != wantFinal {
		t.Fatalf("plan resumed from the compacted log diverged:\n got: %swant: %s", rec.body, wantFinal)
	}
	if m := fetchMetrics(t, ts); resumes != 1 || m.UnresumablePlans != 0 {
		t.Errorf("%d resumes, %d unresumable: want the compacted checkpoint to resume once", resumes, m.UnresumablePlans)
	}
}

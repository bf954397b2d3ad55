package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"centralium/internal/store"
)

// TestRecoveryKeepsMostRecentlyRecorded pins which plans and executions
// survive a restart when more were recorded than the LRU-bounded job tables
// hold: the most recently recorded PlanStoreSize of each, the same ones on
// every boot. (Recovery used to feed the stores in Go map order, so the
// survivors were random and a finished campaign could re-run from wave 0
// after a restart.)
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
				record(t, s, r.typ, r.id, []byte(fmt.Sprintf("%s record %d", r.id, i)))
				if i+1 == tc.compactAfter {
					compact(t, s)
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
					ids, recs := s.persist.jobs[k].records()
					for i, r := range recs {
						if r.checkpoint == nil && r.final == nil {
							t.Errorf("cycle %d: job %s recovered empty", cycle, ids[i])
						}
					}
				}
				execs, plans := tableIDs(s, execJob), tableIDs(s, planJob)
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

// record writes one job record through the job's table, as the journal and
// drive do — a checkpoint is one post's batch — so the job becomes the most
// recently used of its kind, and the log and its record take the value.
func record(t *testing.T, s *Server, typ uint8, id string, body []byte) {
	t.Helper()
	for k, kind := range jobRecords {
		if typ != kind.checkpoint && typ != kind.final {
			continue
		}
		var err error
		s.persist.jobs[k].update(id, func(r *jobRecord) {
			if typ == kind.checkpoint {
				err = s.persist.journal(jobKind(k), id, r).SaveProgress(0, body)
			} else {
				r.post = append(r.post, entry(typ, id, body))
			}
			if err == nil {
				err = s.persist.flush(jobKind(k), r)
			}
		})
		if err != nil {
			t.Fatalf("record %s: %v", id, err)
		}
	}
}

// compact compacts s's log.
func compact(t *testing.T, s *Server) {
	t.Helper()
	s.persist.mu.Lock()
	err := s.persist.compactLocked()
	s.persist.mu.Unlock()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
}

// tableIDs lists the IDs in s's job table of kind k, least recently used
// first.
func tableIDs(s *Server, k jobKind) []string {
	ids, _ := s.persist.jobs[k].records()
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

// TestFinishedPlanDropsCheckpoint: once a plan's final response is
// recorded its resume checkpoint and the states it names are dead weight —
// the plan's record must not hold them, a compaction must not rewrite them,
// and a daemon recovered from the compacted log must still answer with the
// byte-identical final. (The daemon used to keep the last ~865 KB
// checkpoint of every finished plan for the life of the process and copy it
// into every compacted log.)
func TestFinishedPlanDropsCheckpoint(t *testing.T) {
	want := referenceRun(t)
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
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.body != want.whatIf {
		t.Fatalf("whatif diverged: %s", wi.body)
	}
	for i := 0; ; i++ { // one journaled checkpoint per level, then the final
		rec := postPlan(t, ts.Client(), ts.URL, recStepBody)
		if decodePlan(t, rec).Done {
			if rec.body != want.plan {
				t.Fatalf("plan diverged: %s", rec.body)
			}
			break
		}
		if i > 64 {
			t.Fatal("plan never finished")
		}
	}
	ts.Close()

	ids, recs := s.persist.jobs[planJob].records()
	for i, r := range recs {
		if r.final == nil || r.checkpoint != nil {
			t.Errorf("finished plan %s holds a %d-byte final and a %d-byte checkpoint", ids[i], len(r.final), len(r.checkpoint))
		}
	}
	if n := s.persist.liveStates(); n != 0 {
		t.Errorf("the plan table holds %d states after the only plan finished", n)
	}
	compact(t, s)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recs2 := walRecordTypes(t, dir)
	if len(recs2[recPlanFinal]) != 1 {
		t.Fatalf("compacted log holds %d plan finals, want 1", len(recs2[recPlanFinal]))
	}
	for id := range recs2[recPlanFinal] {
		if n := recs2[recPlanCheckpoint][id]; n != 0 {
			t.Errorf("compacted log holds %d checkpoint record(s) for finished plan %s", n, id)
		}
		if n := recs2[recPlanState][id]; n != 0 {
			t.Errorf("compacted log holds %d state record(s) for finished plan %s", n, id)
		}
	}
	checkRecovered(t, dir, want)
}

// TestJobTablesBoundTheLog: the job tables — and so every compacted log —
// hold the most recently used PlanStoreSize plans and executions, not every
// one the daemon ever served.
func TestJobTablesBoundTheLog(t *testing.T) {
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
			record(t, s, r.typ, r.id, []byte(r.id+" body"))
		}
		if i >= 10 {
			wantPlans, wantExecs = append(wantPlans, plan), append(wantExecs, exec)
		}
	}
	plans, execs := tableIDs(s, planJob), tableIDs(s, execJob)
	compact(t, s)
	if fmt.Sprint(plans) != fmt.Sprint(wantPlans) || fmt.Sprint(execs) != fmt.Sprint(wantExecs) {
		t.Errorf("tables hold plans %v, executions %v; want %v, %v", plans, execs, wantPlans, wantExecs)
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

// TestCompactionUnderConcurrentJobs: with a compaction every few appends,
// one post's append rewrites the records of jobs that other posts are
// advancing at the same time, while what-ifs build bases and memoize bodies
// that nothing journals. Every job still finishes on the final of an
// uninterrupted run, after a restart and again after a second one.
func TestCompactionUnderConcurrentJobs(t *testing.T) {
	type job struct {
		post        func(*testing.T, *http.Client, string, string) respRec
		paced, full string
	}
	var jobs []job
	unpace := strings.NewReplacer(`,"max_levels":1`, "", `,"max_waves":1`, "")
	for _, k := range jobKindCases() {
		for _, paced := range []string{k.paced, k.others[0], k.others[1]} {
			jobs = append(jobs, job{k.post, paced, unpace.Replace(paced)})
		}
	}
	_, ref := confServer(t, 2)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = j.post(t, ref.Client(), ref.URL, j.full).body
	}

	dir := t.TempDir()
	open := func() (*httptest.Server, func()) {
		st, err := store.Open(dir, store.Options{SegmentBytes: 1 << 15})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		s, err := Open(Config{Workers: 4, Store: st, CompactSegments: 2})
		if err != nil {
			t.Fatalf("open server: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		return ts, func() {
			ts.Close()
			if err := st.Close(); err != nil {
				t.Errorf("close store: %v", err)
			}
		}
	}
	ts, stop := open()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if rec := j.post(t, ts.Client(), ts.URL, j.paced); rec.status != http.StatusOK {
					t.Errorf("paced post %d: status %d: %s", i, rec.status, rec.body)
				}
			}
		}()
	}
	for seed := 1; seed <= 3; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postWhatIf(t, ts.Client(), ts.URL, fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, seed))
		}()
	}
	wg.Wait()
	if m := fetchMetrics(t, ts); m.StoreCompactions == 0 {
		t.Fatalf("no compaction ran alongside the posts (%d appends)", m.StoreAppends)
	}
	stop()
	for restart := 1; restart <= 2; restart++ {
		ts, stop := open()
		for i, j := range jobs {
			if rec := j.post(t, ts.Client(), ts.URL, j.full); rec.body != want[i] {
				t.Errorf("restart %d: job %s diverged:\n got: %s\nwant: %s", restart, j.paced, rec.body, want[i])
			}
		}
		stop()
	}
}

// TestCompactionKeepsLivePlanResumable: a compaction rewrites an unfinished
// plan as its states, then the one checkpoint that names them, and a daemon
// recovered from that log resumes the plan — not restarts it — to the
// byte-identical final.
func TestCompactionKeepsLivePlanResumable(t *testing.T) {
	want := referenceRun(t)
	dir := t.TempDir()
	var resumes int
	s, ts, stop := openDurable(t, dir, &resumes)
	for i := 0; i < 2; i++ {
		if decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody)).Done {
			t.Fatal("plan finished before the compaction")
		}
	}
	compact(t, s)
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
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != want.plan {
		t.Fatalf("plan resumed from the compacted log diverged:\n got: %swant: %s", rec.body, want.plan)
	}
	if m := fetchMetrics(t, ts); resumes != 1 || m.UnresumablePlans != 0 {
		t.Errorf("%d resumes, %d unresumable: want the compacted checkpoint to resume once", resumes, m.UnresumablePlans)
	}
}

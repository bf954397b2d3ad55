package server

// The plan handler keeps its search live between requests and reads a
// checkpoint back only when it has none: after a restart, after a failed
// step, and never from bytes that do not resume.

import (
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"

	"centralium/internal/store"
)

// openDurable opens a store-backed daemon on dir that counts its
// ResumeSearch calls into *resumes; stop shuts it and its store down.
func openDurable(t *testing.T, dir string, resumes *int) (s *Server, ts *httptest.Server, stop func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s, err = Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatalf("open server: %v", err)
	}
	s.testHookResume = func() { *resumes++ } // the posts below are sequential
	ts = httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		if err := st.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	}
}

// TestPlanKeepsSearchLive: a plan stepped one level a request never goes
// through ResumeSearch on a daemon that stays up, and answers every
// request with the bytes of a daemon restarted before each of them — which
// resumes from its WAL every time.
func TestPlanKeepsSearchLive(t *testing.T) {
	var liveResumes int
	_, ts, stop := openDurable(t, t.TempDir(), &liveResumes)
	var live []string
	for done := false; !done; {
		rec := postPlan(t, ts.Client(), ts.URL, recStepBody)
		done = decodePlan(t, rec).Done
		live = append(live, rec.body)
		if len(live) > 64 {
			t.Fatal("plan still not done after 64 stepped requests")
		}
	}
	m := fetchMetrics(t, ts)
	stop()
	if liveResumes != 0 {
		t.Errorf("a daemon that stayed up resumed its own search %d times", liveResumes)
	}
	if len(live) < 3 {
		t.Fatalf("plan finished in %d requests: too shallow to show anything", len(live))
	}
	if m.StorePlanCheckpointBytes <= 0 || m.StoreBytes <= m.StorePlanCheckpointBytes {
		t.Errorf("store_bytes %d, store_plan_checkpoint_bytes %d: want both positive and bases, finals on top of the checkpoints",
			m.StoreBytes, m.StorePlanCheckpointBytes)
	}

	var restartResumes int
	dir := t.TempDir()
	for i, want := range live {
		_, ts, stop := openDurable(t, dir, &restartResumes)
		rec := postPlan(t, ts.Client(), ts.URL, recStepBody)
		stop()
		if rec.body != want {
			t.Fatalf("request %d: the restarted daemon answers differently from the live one:\n restarted: %s      live: %s", i, rec.body, want)
		}
	}
	if restartResumes != len(live)-1 {
		t.Errorf("%d resumes over %d restarts with a journaled level behind them", restartResumes, len(live)-1)
	}
}

// TestMetricsCountWALPayloadBytes: store_bytes is the payload the WAL holds.
func TestMetricsCountWALPayloadBytes(t *testing.T) {
	dir := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, dir, &resumes)
	postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody)
	if !decodePlan(t, postPlan(t, ts.Client(), ts.URL, recPlanBody)).Done {
		t.Fatal("plan did not finish")
	}
	m := fetchMetrics(t, ts)
	stop()
	if m.StoreCompactions != 0 {
		t.Fatalf("%d compactions: the WAL no longer holds every appended record", m.StoreCompactions)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var total, checkpoints int64
	err = st.Log.Replay(func(r store.Record) error {
		total += int64(len(r.Data))
		if r.Type == recPlanCheckpoint {
			checkpoints += int64(len(r.Data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreBytes != total || m.StorePlanCheckpointBytes != checkpoints {
		t.Errorf("metrics report %d bytes (%d of plan checkpoints), the WAL holds %d (%d)",
			m.StoreBytes, m.StorePlanCheckpointBytes, total, checkpoints)
	}
}

// TestStepErrorDropsLiveSearch: a level that ran but could not be journaled
// must not survive in memory — the next request continues from the last
// journaled level, as a daemon that crashed there would.
func TestStepErrorDropsLiveSearch(t *testing.T) {
	wantFinal, _ := referenceRun(t)
	var resumes int
	s, ts, stop := openDurable(t, t.TempDir(), &resumes)
	defer stop()
	first := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	if first.Done {
		t.Fatal("plan finished in one level")
	}

	// The journal fails: a closed store refuses the append.
	closed, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	swapStore := func(st *store.Store) *store.Store {
		s.persist.mu.Lock()
		defer s.persist.mu.Unlock()
		old := s.persist.st
		s.persist.st = st
		return old
	}
	good := swapStore(closed)
	if rec := postPlan(t, ts.Client(), ts.URL, recStepBody); rec.status != http.StatusInternalServerError {
		t.Fatalf("a failed journal append answered %d: %s", rec.status, rec.body)
	}
	swapStore(good)

	pe := s.plans.get(first.PlanID)
	pe.mu.Lock()
	kept := pe.live != nil
	pe.mu.Unlock()
	if kept {
		t.Error("the search that ran an unjournaled level is still live")
	}
	next := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	if next.Level != first.Level+1 {
		t.Errorf("after the failed level the plan is at level %d, want %d (one past the last journaled)", next.Level, first.Level+1)
	}
	if resumes != 1 {
		t.Errorf("%d resumes, want 1: the request after the failure reads the journaled checkpoint back", resumes)
	}
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != wantFinal {
		t.Errorf("plan diverged after a failed step:\n got: %swant: %s", rec.body, wantFinal)
	}
}

// TestUnresumableCheckpointRestartsPlan: a well-framed plan checkpoint
// that does not resume counts as absent. The plan restarts from level 0
// and finishes on the byte-identical body; it does not answer 500 until
// the entry ages out.
func TestUnresumableCheckpointRestartsPlan(t *testing.T) {
	wantFinal, _ := referenceRun(t)
	dir := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, dir, &resumes)
	first := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	stop()
	if first.Done {
		t.Fatal("plan finished in one level")
	}

	// One corrupt byte, journaled as the plan's latest checkpoint: the CRC
	// frames what it was given, so only ResumeSearch can object.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journal := st.Journal(recPlanCheckpoint, first.PlanID)
	cp, ok, err := journal.Latest()
	if err != nil || !ok {
		t.Fatalf("no journaled checkpoint for %s (err %v)", first.PlanID, err)
	}
	_, n := binary.Uvarint(cp[4:]) // magic, then the manifest's length
	cp[4+n] ^= 0x5a                // the manifest's opening brace
	if err := journal.SaveProgress(first.Level, cp); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, stop = openDurable(t, dir, &resumes)
	defer stop()
	next := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	if next.PlanID != first.PlanID || next.Level != 1 {
		t.Errorf("plan %s at level %d after an unresumable checkpoint, want %s restarted to level 1", next.PlanID, next.Level, first.PlanID)
	}
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != wantFinal {
		t.Errorf("restarted plan diverged from reference:\n got: %swant: %s", rec.body, wantFinal)
	}
	if m := fetchMetrics(t, ts); m.UnresumablePlans != 1 {
		t.Errorf("unresumable_plans = %d, want 1", m.UnresumablePlans)
	}
}

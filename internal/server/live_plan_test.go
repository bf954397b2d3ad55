package server

// The plan handler keeps its search live between requests and reads a
// checkpoint back only when it has none (jobs_test.go holds the cases both
// job kinds share).

import (
	"net/http/httptest"
	"testing"

	"centralium/internal/store"
)

// openDurable opens a store-backed daemon on dir that counts its resumes
// into *resumes; stop shuts it and its store down.
func openDurable(t *testing.T, dir string, resumes *int) (s *Server, ts *httptest.Server, stop func()) {
	t.Helper()
	return openDurableWith(t, dir, Config{Workers: 2}, func() { *resumes++ }) // the posts below are sequential
}

// openDurableWith opens a daemon configured by cfg on a store on dir, with
// hook run before every resume.
func openDurableWith(t *testing.T, dir string, cfg Config, hook func()) (s *Server, ts *httptest.Server, stop func()) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cfg.Store = st
	s, err = Open(cfg)
	if err != nil {
		t.Fatalf("open server: %v", err)
	}
	s.testHookResume = hook
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

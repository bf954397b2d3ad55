package server

// The plan handler keeps its search live between requests and reads a
// checkpoint back only when it has none (jobs_test.go holds the cases both
// job kinds share).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"centralium/internal/planner"
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
	if m.StorePlanCheckpointBytes <= 0 || m.StorePlanStateBytes <= 0 ||
		m.StoreBytes <= m.StorePlanCheckpointBytes+m.StorePlanStateBytes {
		t.Errorf("store_bytes %d, store_plan_checkpoint_bytes %d, store_plan_state_bytes %d: want all positive and the final on top of the plan's records",
			m.StoreBytes, m.StorePlanCheckpointBytes, m.StorePlanStateBytes)
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
	var total, checkpoints, states int64
	err = st.Log.Replay(func(r store.Record) error {
		total += int64(len(r.Data))
		switch r.Type {
		case recPlanCheckpoint:
			checkpoints += int64(len(r.Data))
		case recPlanState:
			states += int64(len(r.Data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreBytes != total || m.StorePlanCheckpointBytes != checkpoints || m.StorePlanStateBytes != states {
		t.Errorf("metrics report %d bytes (%d of plan checkpoints, %d of plan states), the WAL holds %d (%d, %d)",
			m.StoreBytes, m.StorePlanCheckpointBytes, m.StorePlanStateBytes, total, checkpoints, states)
	}
	if m.StoreLiveStates != 0 {
		t.Errorf("store_live_states %d after the only plan finished, want 0", m.StoreLiveStates)
	}
}

// TestPlanRestartsVersion2Checkpoint boots a data dir whose WAL journals a
// plan checkpoint of a version the planner refuses (ErrCheckpointVersion).
// The daemon counts it unresumable and the re-post restarts the plan from
// level 0 to the byte-identical final body of an uninterrupted run.
func TestPlanRestartsVersion2Checkpoint(t *testing.T) {
	_, ref := confServer(t, 2)
	want := postPlan(t, ref.Client(), ref.URL, recPlanBody)
	if !decodePlan(t, want).Done {
		t.Fatalf("reference plan did not finish: %s", want.body)
	}

	dir := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, dir, &resumes)
	paced := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	stop()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journal := st.Journal(recPlanCheckpoint, paced.PlanID)
	data, ok, err := journal.Latest()
	if err != nil || !ok {
		t.Fatalf("no journaled checkpoint for %s (err %v)", paced.PlanID, err)
	}
	v2 := bytes.Replace(data, []byte(`{"version":3,`), []byte(`{"version":2,`), 1)
	if bytes.Equal(v2, data) {
		t.Fatal("fixture: the journaled manifest does not open with its version")
	}
	if err := journal.SaveProgress(paced.Level, v2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, stop = openDurable(t, dir, &resumes)
	defer stop()
	if got := postPlan(t, ts.Client(), ts.URL, recPlanBody); got.body != want.body {
		t.Errorf("restarted plan diverged from uninterrupted:\n got: %s\nwant: %s", got.body, want.body)
	}
	if m := fetchMetrics(t, ts); m.UnresumablePlans != 1 || resumes != 1 {
		t.Errorf("unresumable_plans = %d after %d resume(s), want 1 and 1", m.UnresumablePlans, resumes)
	}
}

// TestLegacyBaseAndMemoRecordsRecover boots a data dir in the shape an
// earlier daemon wrote: a scenario-base record (type 1) with the base in the
// object store, a memoized what-if (type 4), and a live plan whose states
// include the base. Those record types are retired: recovery skips them, the
// plan resumes to the byte-identical final, the what-if is recomputed to the
// bytes it was memoized with, and the first compaction leaves no record of
// type 1 or 4.
func TestLegacyBaseAndMemoRecordsRecover(t *testing.T) {
	const legacyBase, legacyMemo uint8 = 1, 4
	want := referenceRun(t)

	src := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, src, &resumes)
	paced := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	stop()
	if paced.Done {
		t.Fatal("one level finished the plan: nothing to resume")
	}
	snap, params, err := planner.ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	baseRec, err := json.Marshal(struct {
		Fingerprint string         `json:"fingerprint"`
		Params      planner.Params `json:"params"`
	}{paced.Fingerprint, params})
	if err != nil {
		t.Fatal(err)
	}
	wi, err := DecodeWhatIfRequest([]byte(recWhatIfBody))
	if err != nil || wi.Validate() != nil {
		t.Fatalf("what-if body: %v", err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Objects.Put(paced.Fingerprint, base); err != nil {
		t.Fatal(err)
	}
	level := []store.Entry{entry(recPlanState, paced.PlanID, []byte(paced.Fingerprint), base)}
	for _, r := range walRecords(t, src) {
		level = append(level, entry(r.typ, r.key, r.value))
	}
	for _, batch := range [][]store.Entry{
		{entry(legacyBase, "fig10|1", baseRec)},
		{entry(legacyMemo, wi.memoKey(paced.Fingerprint), []byte(want.whatIf))},
		level,
	} {
		if _, err := st.Log.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts, stop := openDurable(t, dir, &resumes)
	if plans, execs, _ := s.Recovered(); plans != 1 || execs != 0 {
		t.Fatalf("recovered (plans, execs) = (%d, %d), want (1, 0)", plans, execs)
	}
	compact(t, s)
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != want.plan {
		t.Errorf("legacy plan diverged from uninterrupted:\n got: %s\nwant: %s", rec.body, want.plan)
	}
	if got := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); got.body != want.whatIf {
		t.Errorf("legacy what-if diverged:\n got: %s\nwant: %s", got.body, want.whatIf)
	}
	m := fetchMetrics(t, ts)
	stop()
	if resumes != 1 || m.UnresumablePlans != 0 || m.MemoHits != 0 {
		t.Errorf("%d resumes, unresumable_plans %d, memo_hits %d: want the plan resumed once and the what-if recomputed",
			resumes, m.UnresumablePlans, m.MemoHits)
	}
	types := walRecordTypes(t, dir)
	if len(types[legacyBase]) != 0 || len(types[legacyMemo]) != 0 {
		t.Errorf("the compacted log holds %d base and %d memo records, want none", len(types[legacyBase]), len(types[legacyMemo]))
	}
}

// walRecords reopens dir's store and returns its WAL records, oldest first,
// each with its key and value.
func walRecords(t *testing.T, dir string) []walRecord {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st.Close()
	var out []walRecord
	err = st.Log.Replay(func(r store.Record) error {
		key, value, err := store.DecodeKV(r.Data)
		if err != nil {
			return err
		}
		out = append(out, walRecord{r.Type, key, bytes.Clone(value)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

type walRecord struct {
	typ   uint8
	key   string
	value []byte
}

// planManifest is what these tests read of a plan checkpoint: the container
// framing's manifest, the fingerprints it names, and the number of states
// the container carries itself.
func planManifest(t *testing.T, cp []byte) (named []string, carried uint64) {
	t.Helper()
	if string(cp[:4]) != "CPLN" {
		t.Fatalf("plan checkpoint is not a container: %q", cp[:4])
	}
	l, n := binary.Uvarint(cp[4:])
	manifest := cp[4+n : 4+n+int(l)]
	carried, _ = binary.Uvarint(cp[4+n+int(l):])
	var m struct {
		Version int    `json:"version"`
		Base    string `json:"base"`
		Beam    []struct {
			State string `json:"state"`
		} `json:"beam"`
		Memo []struct {
			Child string `json:"child"`
		} `json:"memo"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		t.Fatalf("plan checkpoint manifest: %v", err)
	}
	if m.Version != 3 {
		t.Fatalf("plan checkpoint manifest version %d, want 3", m.Version)
	}
	named = append(named, m.Base)
	for _, b := range m.Beam {
		named = append(named, b.State)
	}
	for _, c := range m.Memo {
		if c.Child != "" {
			named = append(named, c.Child)
		}
	}
	return named, carried
}

// TestPlanStatesJournaledOnce: a plan paced one level a post journals each
// distinct state once, as a state record of its own under the plan's ID that
// hashes to the fingerprint it carries, ahead of the first checkpoint that
// names it; and no checkpoint record carries state bytes. The base is the
// exception: no record carries it, because the plan's post resolves it from
// the snapshot cache (TestPlanKeepsSearchLive resumes such a plan after
// every restart).
func TestPlanStatesJournaledOnce(t *testing.T) {
	dir := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, dir, &resumes)
	levels := 0
	var base string
	for done := false; !done; levels++ {
		resp := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
		done, base = resp.Done, resp.Fingerprint
		if levels > 64 {
			t.Fatal("plan still not done after 64 stepped requests")
		}
	}
	m := fetchMetrics(t, ts)
	stop()
	if levels < 3 {
		t.Fatalf("plan finished in %d levels: too shallow to show anything", levels)
	}

	journaled := map[string]bool{base: true}
	var checkpoints, states int
	for _, r := range walRecords(t, dir) {
		switch r.typ {
		case recPlanState:
			states++
			fp := string(r.value[:fpLen])
			sum := sha256.Sum256(r.value[fpLen:])
			if hex.EncodeToString(sum[:]) != fp {
				t.Errorf("state record %s holds state %x", fp[:12], sum[:6])
			}
			if fp == base {
				t.Errorf("a state record carries the base %s", fp[:12])
			} else if journaled[fp] {
				t.Errorf("state %s journaled twice", fp[:12])
			}
			journaled[fp] = true
		case recPlanCheckpoint:
			checkpoints++
			named, carried := planManifest(t, r.value)
			if carried != 0 {
				t.Errorf("checkpoint %d carries %d states", checkpoints, carried)
			}
			if named[0] != base {
				t.Errorf("checkpoint %d names base %s, want %s", checkpoints, named[0][:12], base[:12])
			}
			for _, fp := range named {
				if !journaled[fp] {
					t.Fatalf("checkpoint %d names state %s before any record holds it", checkpoints, fp[:12])
				}
			}
		}
	}
	if checkpoints != levels || states <= levels {
		t.Errorf("%d checkpoints and %d states over %d levels", checkpoints, states, levels)
	}
	if m.StoreAppends != int64(levels) { // each post, its level and the last one's final
		t.Errorf("store_appends %d over %d posts: want one batch per post", m.StoreAppends, levels)
	}
}

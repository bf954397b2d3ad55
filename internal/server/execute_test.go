package server

// POST /v1/execute behavior: a clean campaign completes and re-serves
// idempotently, a violating campaign aborts with a structured incident,
// paced execution lands on the one-shot bytes, a killed durable daemon
// resumes the campaign from its WAL, guard transitions stream on
// /v1/events, and guard_* metrics count the state machine.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"centralium/internal/guard"
	"centralium/internal/store"
)

func postExecute(t *testing.T, client *http.Client, url, body string) respRec {
	t.Helper()
	resp, err := client.Post(url+"/v1/execute", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("post execute: %v", err)
		return respRec{status: -1}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read execute response: %v", err)
		return respRec{status: -1}
	}
	return respRec{status: resp.StatusCode, body: string(data)}
}

func decodeExecute(t *testing.T, rec respRec) ExecuteResponse {
	t.Helper()
	if rec.status != http.StatusOK {
		t.Fatalf("execute status %d: %s", rec.status, rec.body)
	}
	var resp ExecuteResponse
	if err := json.Unmarshal([]byte(rec.body), &resp); err != nil {
		t.Fatalf("decode execute response: %v (%s)", err, rec.body)
	}
	return resp
}

// TestExecuteCompletesAndIdempotent runs the fig10 campaign under the
// default envelope: it completes clean, repeat posts replay the stored
// terminal bytes, and the guard counters account for every wave.
func TestExecuteCompletesAndIdempotent(t *testing.T) {
	_, ts := confServer(t, 4)
	body := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	first := postExecute(t, ts.Client(), ts.URL, body)
	resp := decodeExecute(t, first)
	if resp.State != "completed" {
		t.Fatalf("state %q, want completed: %+v", resp.State, resp)
	}
	if resp.Waves == 0 || resp.WavesDone != resp.Waves {
		t.Errorf("waves %d/%d, want all done", resp.WavesDone, resp.Waves)
	}
	if resp.Retries != 0 || resp.Rollbacks != 0 || resp.Incident != nil {
		t.Errorf("clean campaign saw trouble: %+v", resp)
	}
	if resp.ExecID == "" || resp.Fingerprint == "" || resp.FinalFingerprint == "" {
		t.Errorf("missing identity: %+v", resp)
	}
	if !strings.Contains(resp.Log, "campaign complete") {
		t.Errorf("decision log missing terminal line:\n%s", resp.Log)
	}

	again := postExecute(t, ts.Client(), ts.URL, body)
	if again.body != first.body {
		t.Errorf("completed execution replay diverged:\n%s\nvs\n%s", again.body, first.body)
	}

	m := fetchMetrics(t, ts)
	if m.GuardCompleted != 1 {
		t.Errorf("guard_completed = %d, want 1", m.GuardCompleted)
	}
	if m.GuardWaves != int64(resp.Waves) {
		t.Errorf("guard_waves = %d, want %d", m.GuardWaves, resp.Waves)
	}
	if m.GuardAborted != 0 || m.GuardRollbacks != 0 {
		t.Errorf("spurious guard trouble counters: %+v", m)
	}
}

// TestExecuteAbortsWithIncident drives the reversed schedule into a
// tight share envelope with retries disabled: the guard must abort,
// quarantine the offending wave, and attach the incident report, with
// the terminal fabric rolled back to the incident's last-good state.
func TestExecuteAbortsWithIncident(t *testing.T) {
	_, _, reversed := fig10Schedules(t)
	_, ts := confServer(t, 4)
	body := fmt.Sprintf(
		`{"scenario":"fig10","seed":%d,"schedule":%q,"envelope":"share=0.6","max_retries":-1}`,
		confSeed, reversed)
	resp := decodeExecute(t, postExecute(t, ts.Client(), ts.URL, body))
	if resp.State != "aborted" {
		t.Fatalf("state %q, want aborted: %+v", resp.State, resp)
	}
	if resp.Incident == nil {
		t.Fatalf("aborted without incident report: %+v", resp)
	}
	if len(resp.Quarantined) == 0 || len(resp.Incident.Quarantined) == 0 {
		t.Errorf("aborted without quarantine: %+v", resp)
	}
	if len(resp.Incident.Violations) == 0 {
		t.Errorf("incident carries no violations: %+v", resp.Incident)
	}
	if resp.Incident.LastGood != resp.FinalFingerprint {
		t.Errorf("terminal fingerprint %s is not the incident's last-good %s",
			resp.FinalFingerprint, resp.Incident.LastGood)
	}
	m := fetchMetrics(t, ts)
	if m.GuardAborted != 1 || m.GuardQuarantines != 1 {
		t.Errorf("guard_aborted/guard_quarantines = %d/%d, want 1/1",
			m.GuardAborted, m.GuardQuarantines)
	}
}

// TestExecutePacedMatchesOneShot advances the campaign one wave per
// request and must land on byte-identical terminal bytes to the
// one-shot execution — the guard checkpoint/resume determinism,
// surfaced through the API.
func TestExecutePacedMatchesOneShot(t *testing.T) {
	_, oneShot := confServer(t, 4)
	oneBody := fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed)
	want := postExecute(t, oneShot.Client(), oneShot.URL, oneBody)
	if decodeExecute(t, want).State != "completed" {
		t.Fatalf("one-shot execute did not complete: %s", want.body)
	}

	_, paced := confServer(t, 4)
	stepBody := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_waves":1}`, confSeed)
	var got respRec
	for i := 0; i < 16; i++ {
		got = postExecute(t, paced.Client(), paced.URL, stepBody)
		resp := decodeExecute(t, got)
		if resp.State != "paused" {
			break
		}
	}
	if got.body != want.body {
		t.Errorf("paced terminal bytes diverged from one-shot:\n%s\nvs\n%s", got.body, want.body)
	}
}

// TestExecuteTerminalReleasesObjects bounds what a storeless daemon holds
// for a campaign: while paused the entry keeps the live execution and no
// bytes, once terminal it keeps the final response bytes and nothing else
// (it used to pin one encoded fabric per completed wave until LRU
// eviction), and repeat posts still answer those bytes.
func TestExecuteTerminalReleasesObjects(t *testing.T) {
	srv, ts := confServer(t, 4)
	stepBody := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"max_waves":1}`, confSeed)
	first := decodeExecute(t, postExecute(t, ts.Client(), ts.URL, stepBody))
	if first.State != "paused" {
		t.Fatalf("one paced wave ended the campaign (%s); cannot observe a live entry", first.State)
	}
	ee := srv.execs.get(first.ExecID)
	defer srv.execs.release(ee)
	held := func() (live bool, final int) {
		ee.mu.Lock()
		defer ee.mu.Unlock()
		return ee.live != nil, len(ee.rec.final)
	}
	if live, final := held(); !live || final != 0 {
		t.Fatalf("paused execution holds live=%v final=%dB; want the live execution only", live, final)
	}

	var last respRec
	for i := 0; i < 16; i++ {
		last = postExecute(t, ts.Client(), ts.URL, stepBody)
		if decodeExecute(t, last).State != "paused" {
			break
		}
	}
	if st := decodeExecute(t, last).State; st != "completed" {
		t.Fatalf("campaign ended %q, want completed", st)
	}
	if live, final := held(); live || final == 0 {
		t.Errorf("terminal execution holds live=%v final=%dB; want only the final bytes", live, final)
	}
	if again := postExecute(t, ts.Client(), ts.URL, stepBody); again.body != last.body {
		t.Errorf("terminal replay diverged after release:\n%s\nvs\n%s", again.body, last.body)
	}
}

// TestExecuteResumesAcrossDaemonRestart pauses a guarded campaign on a
// durable daemon, kills the daemon, and reopens the data directory: the
// recovered daemon must resume the campaign from its WAL checkpoint and
// reach byte-identical terminal bytes to an uninterrupted execution.
func TestExecuteResumesAcrossDaemonRestart(t *testing.T) {
	_, ref := confServer(t, 2)
	body := `{"scenario":"fig10","seed":1}`
	want := postExecute(t, ref.Client(), ref.URL, body)
	if decodeExecute(t, want).State != "completed" {
		t.Fatalf("reference execute did not complete: %s", want.body)
	}

	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s1, err := Open(Config{Workers: 2, Store: st1})
	if err != nil {
		t.Fatalf("open server: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	paced := `{"scenario":"fig10","seed":1,"max_waves":1}`
	resp := decodeExecute(t, postExecute(t, ts1.Client(), ts1.URL, paced))
	if resp.State != "paused" {
		t.Fatalf("first leg state %q, want paused: %+v", resp.State, resp)
	}
	// Kill the daemon with the campaign frozen mid-flight.
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	t.Cleanup(func() { st2.Close() })
	s2, err := Open(Config{Workers: 2, Store: st2})
	if err != nil {
		t.Fatalf("reopen server: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	m := fetchMetrics(t, ts2)
	if m.RecoveredExecs != 1 {
		t.Errorf("recovered_execs = %d, want 1", m.RecoveredExecs)
	}
	got := postExecute(t, ts2.Client(), ts2.URL, body)
	if got.body != want.body {
		t.Errorf("resumed terminal bytes diverged from uninterrupted:\n%s\nvs\n%s",
			got.body, want.body)
	}
	// The terminal record itself is durable: a third daemon generation
	// replays the stored bytes without re-driving anything.
	again := postExecute(t, ts2.Client(), ts2.URL, body)
	if again.body != want.body {
		t.Errorf("recovered terminal replay diverged")
	}
}

// TestExecuteResumesRollbackFromBase: a violating fig10 campaign rolls back
// at wave 0 to its base and pauses for a retry. A daemon killed there, with
// the rollback's checkpoint the last record on disk, resumes the campaign on
// restart from the base its post rebuilds — no object and no record holds
// the base — with nothing unresumable, to the final of an uninterrupted run.
// After plan and execute histories, the object store holds no file named by
// a base fingerprint.
func TestExecuteResumesRollbackFromBase(t *testing.T) {
	_, _, reversed := fig10Schedules(t)
	body := fmt.Sprintf(`{"scenario":"fig10","seed":%d,"schedule":%q,"envelope":"share=0.6"}`, confSeed, reversed)
	_, ref := confServer(t, 2)
	want := postExecute(t, ref.Client(), ref.URL, body)
	if r := decodeExecute(t, want); r.State != "aborted" || r.WavesDone != 0 || r.Rollbacks < 2 {
		t.Fatalf("reference campaign %s after %d waves and %d rollbacks, want aborted at wave 0 after retries",
			r.State, r.WavesDone, r.Rollbacks)
	}

	history := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, history, &resumes)
	got := decodeExecute(t, postExecute(t, ts.Client(), ts.URL, body))
	plan := decodePlan(t, postPlan(t, ts.Client(), ts.URL, recStepBody))
	stop()
	bases := []string{got.Fingerprint, plan.Fingerprint}
	checkNoBaseObjects(t, history, bases)

	// The kill: the log ends with the checkpoint the first rollback journaled.
	recs := walRecords(t, history)
	segs := walSegments(t, history)
	boundaries, err := store.RecordBoundaries(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	first := len(recs) - (len(boundaries) - 1) // the newest segment's first record
	cut := -1
	for i := first; i < len(recs) && cut < 0; i++ {
		if recs[i].typ != recExecCheckpoint {
			continue
		}
		cp, err := guard.DecodeCheckpoint(recs[i].value)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Wave == 0 && cp.Attempt == 1 {
			if cp.LastGood != got.Fingerprint || cp.Done {
				t.Fatalf("the rollback's checkpoint names last-good %s (done %v), want the base %s", cp.LastGood, cp.Done, got.Fingerprint)
			}
			cut = i
		}
	}
	if cut < 0 {
		t.Fatal("the newest segment holds no checkpoint of a wave-0 rollback")
	}
	dir := cloneDir(t, history)
	if err := os.Truncate(walSegments(t, dir)[len(segs)-1], boundaries[cut-first+1]); err != nil {
		t.Fatal(err)
	}

	resumes = 0
	s, ts, stop := openDurable(t, dir, &resumes)
	defer stop()
	if _, execs, _ := s.Recovered(); execs != 1 {
		t.Fatalf("recovered %d executions, want 1", execs)
	}
	if again := postExecute(t, ts.Client(), ts.URL, body); again.body != want.body {
		t.Errorf("campaign resumed from its rollback diverged from uninterrupted:\n got: %s\nwant: %s", again.body, want.body)
	}
	if m := fetchMetrics(t, ts); resumes != 1 || m.UnresumableExecs != 0 || m.SnapshotCacheMisses != 1 {
		t.Errorf("%d resumes, unresumable_execs %d, %d snapshot-cache misses: want 1, 0 and 1 (the base rebuilt cold)",
			resumes, m.UnresumableExecs, m.SnapshotCacheMisses)
	}
	checkNoBaseObjects(t, dir, bases)
}

// checkNoBaseObjects fails when dir's object store holds a file named by one
// of the base fingerprints.
func checkNoBaseObjects(t *testing.T, dir string, bases []string) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if slices.Contains(bases, d.Name()) {
			t.Errorf("the object store holds base %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecuteRestartsVersion1Checkpoint boots a data dir whose WAL holds a
// paused version-1 guard checkpoint, the record a campaign that settled once
// per wave journaled. The daemon refuses to resume it, counts it unresumable,
// and the re-post restarts the campaign from wave 0 to the byte-identical
// final of an uninterrupted run: it never finishes as a mix of two
// measurement cadences.
func TestExecuteRestartsVersion1Checkpoint(t *testing.T) {
	_, ref := confServer(t, 2)
	body := `{"scenario":"fig10","seed":1}`
	want := postExecute(t, ref.Client(), ref.URL, body)
	if decodeExecute(t, want).State != "completed" {
		t.Fatalf("reference execute did not complete: %s", want.body)
	}

	dir := t.TempDir()
	var resumes int
	_, ts, stop := openDurable(t, dir, &resumes)
	paused := decodeExecute(t, postExecute(t, ts.Client(), ts.URL, `{"scenario":"fig10","seed":1,"max_waves":1}`))
	stop()
	if paused.State != "paused" {
		t.Fatalf("first leg state %q, want paused", paused.State)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	journal := st.Journal(recExecCheckpoint, paused.ExecID)
	data, ok, err := journal.Latest()
	if err != nil || !ok {
		t.Fatalf("no journaled checkpoint for %s (err %v)", paused.ExecID, err)
	}
	cp, err := guard.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	if data, err = cp.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := journal.SaveProgress(cp.Wave, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, stop = openDurable(t, dir, &resumes)
	defer stop()
	if got := postExecute(t, ts.Client(), ts.URL, body); got.body != want.body {
		t.Errorf("restarted campaign diverged from uninterrupted:\n got: %s\nwant: %s", got.body, want.body)
	}
	if m := fetchMetrics(t, ts); m.UnresumableExecs != 1 || resumes != 1 {
		t.Errorf("unresumable_execs = %d after %d resume(s), want 1 and 1", m.UnresumableExecs, resumes)
	}
}

// TestExecuteRejectsBadRequests pins the 400 surface.
func TestExecuteRejectsBadRequests(t *testing.T) {
	_, ts := confServer(t, 2)
	cases := []struct{ name, body string }{
		{"unknown field", `{"scenario":"fig10","seed":1,"bogus":true}`},
		{"bad scenario", `{"scenario":"fig99","seed":1}`},
		{"bad envelope", `{"scenario":"fig10","seed":1,"envelope":"share=lots"}`},
		{"retries too high", `{"scenario":"fig10","seed":1,"max_retries":9}`},
		{"retries too low", `{"scenario":"fig10","seed":1,"max_retries":-2}`},
		{"waves out of range", `{"scenario":"fig10","seed":1,"max_waves":65}`},
		{"unknown device", `{"scenario":"fig10","seed":1,"schedule":"nosuch-device"}`},
		{"trailing garbage", `{"scenario":"fig10","seed":1}x`},
	}
	for _, c := range cases {
		if rec := postExecute(t, ts.Client(), ts.URL, c.body); rec.status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, rec.status, rec.body)
		}
	}
}

// TestExecuteGuardEventsOnStream subscribes to /v1/events and must see
// the guard state machine walk by, tagged with the execute source.
func TestExecuteGuardEventsOnStream(t *testing.T) {
	_, ts := confServer(t, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no stream-open comment: %q", sc.Text())
	}

	go postExecute(t, ts.Client(), ts.URL,
		fmt.Sprintf(`{"scenario":"fig10","seed":%d}`, confSeed))

	var ev struct {
		Source string `json:"source"`
		Guard  *struct {
			State string `json:"state"`
			Wave  int    `json:"wave"`
		} `json:"guard"`
	}
	states := map[string]bool{}
	wantSource := fmt.Sprintf("execute fig10/%d", confSeed)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode stream event: %v (%s)", err, line)
		}
		if ev.Guard == nil {
			continue
		}
		if ev.Source != wantSource {
			t.Fatalf("guard event source %q, want %q", ev.Source, wantSource)
		}
		states[ev.Guard.State] = true
		if ev.Guard.State == "completed" {
			break
		}
	}
	if !states["running"] || !states["completed"] {
		t.Errorf("guard states seen on stream: %v, want running and completed", states)
	}
	cancel()
}

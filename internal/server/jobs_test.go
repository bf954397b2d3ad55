package server

// The contract of drive, held once for both kinds of job: what a post
// for a plan does, a post for an execution does, case by case.

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"centralium/internal/store"
)

// jobView is the part of a job response the contract talks about.
type jobView struct {
	id       string
	progress int // completed levels or waves
	done     bool
}

// jobKindCase is one kind of job as these tests post it.
type jobKindCase struct {
	name string
	post func(t *testing.T, client *http.Client, url, body string) respRec
	// paced advances the job one level or wave; full is the same job run to
	// completion; others are two more jobs of the kind, paced.
	paced, full string
	others      [2]string
	// checkpointRec is the kind's WAL checkpoint record type, and corrupt
	// turns a journaled checkpoint into one the WAL frames but the job does
	// not resume from.
	checkpointRec uint8
	corrupt       func(cp []byte) []byte
	unresumable   func(*MetricsSnapshot) int64
	recovered     func(*MetricsSnapshot) int
	// held reports what the job's entry holds; pins how many requests hold
	// the entry.
	held func(s *Server, id string) (live bool, final int)
	pins func(s *Server, id string) int
	view func(t *testing.T, body []byte) jobView
}

func jobKindCases() []jobKindCase {
	return []jobKindCase{{
		name:  "plan",
		post:  postPlan,
		paced: recStepBody,
		full:  recPlanBody,
		others: [2]string{
			`{"scenario":"fig10","seed":1,"beam":3,"random_cands":-1,"max_levels":1}`,
			`{"scenario":"fig10","seed":1,"beam":4,"random_cands":-1,"max_levels":1}`,
		},
		checkpointRec: recPlanCheckpoint,
		corrupt: func(cp []byte) []byte {
			_, n := binary.Uvarint(cp[4:]) // magic, then the manifest's length
			cp[4+n] ^= 0x5a                // the manifest's opening brace
			return cp
		},
		unresumable: func(m *MetricsSnapshot) int64 { return m.UnresumablePlans },
		recovered:   func(m *MetricsSnapshot) int { return m.RecoveredPlans },
		held:        func(s *Server, id string) (bool, int) { return entryHolds(s.plans, id) },
		pins:        func(s *Server, id string) int { return entryPins(s.plans, id) },
		view: func(t *testing.T, body []byte) jobView {
			var r PlanResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("decode plan response: %v (%s)", err, body)
			}
			return jobView{r.PlanID, r.Level, r.Done}
		},
	}, {
		name:  "execute",
		post:  postExecute,
		paced: `{"scenario":"fig10","seed":1,"max_waves":1}`,
		full:  `{"scenario":"fig10","seed":1}`,
		others: [2]string{
			`{"scenario":"fig10","seed":1,"max_retries":1,"max_waves":1}`,
			`{"scenario":"fig10","seed":1,"max_retries":2,"max_waves":1}`,
		},
		checkpointRec: recExecCheckpoint,
		corrupt:       func([]byte) []byte { return []byte(`{"version":1,"campaign":`) },
		unresumable:   func(m *MetricsSnapshot) int64 { return m.UnresumableExecs },
		recovered:     func(m *MetricsSnapshot) int { return m.RecoveredExecs },
		held:          func(s *Server, id string) (bool, int) { return entryHolds(s.execs, id) },
		pins:          func(s *Server, id string) int { return entryPins(s.execs, id) },
		view: func(t *testing.T, body []byte) jobView {
			var r ExecuteResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("decode execute response: %v (%s)", err, body)
			}
			return jobView{r.ExecID, r.WavesDone, r.State != "paused"}
		},
	}}
}

// do posts body and decodes a 200 response.
func (k jobKindCase) do(t *testing.T, client *http.Client, url, body string) (respRec, jobView) {
	t.Helper()
	rec := k.post(t, client, url, body)
	if rec.status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", k.name, rec.status, rec.body)
	}
	return rec, k.view(t, []byte(rec.body))
}

// reference is the job's final body from a storeless daemon that ran it in
// one post.
func (k jobKindCase) reference(t *testing.T) string {
	t.Helper()
	_, ts := confServer(t, 2)
	rec, v := k.do(t, ts.Client(), ts.URL, k.full)
	if !v.done {
		t.Fatalf("%s: one post did not finish the job: %s", k.name, rec.body)
	}
	return rec.body
}

// entryHolds reports whether job id's entry holds a live job, and how many
// final bytes.
func entryHolds[J any](js *jobStore[J], id string) (live bool, final int) {
	e := js.get(id)
	defer js.release(e)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live != nil, len(e.rec.final)
}

// entryPins reports how many requests hold job id's entry.
func entryPins[J any](js *jobStore[J], id string) int {
	js.mu.Lock()
	defer js.mu.Unlock()
	if e, ok := js.entries.get(id); ok {
		return e.pins
	}
	return 0
}

// TestJobDriverParity runs drive's contract against /v1/plan and
// /v1/execute alike. Every case ends on the byte-identical final body of an
// uninterrupted run on a storeless daemon.
func TestJobDriverParity(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, k jobKindCase, want string)
	}{
		{"paced continuation stays live", func(t *testing.T, k jobKindCase, want string) {
			// A daemon that stays up never resumes its own job, and answers
			// every post with the bytes of a daemon restarted before each one,
			// which resumes from its WAL every time.
			var liveResumes, restartResumes int
			_, ts, stop := openDurable(t, t.TempDir(), &liveResumes)
			var live []string
			for done := false; !done; {
				rec, v := k.do(t, ts.Client(), ts.URL, k.paced)
				if done = v.done; !done && v.progress != len(live)+1 {
					t.Fatalf("post %d: progress %d", len(live), v.progress)
				}
				live = append(live, rec.body)
				if len(live) > 64 {
					t.Fatal("job still not done after 64 paced posts")
				}
			}
			stop()
			if liveResumes != 0 {
				t.Errorf("a daemon that stayed up resumed its own job %d times", liveResumes)
			}
			if live[len(live)-1] != want {
				t.Errorf("paced final diverged:\n got: %s\nwant: %s", live[len(live)-1], want)
			}
			dir := t.TempDir()
			for i, body := range live {
				_, ts, stop := openDurable(t, dir, &restartResumes)
				rec := k.post(t, ts.Client(), ts.URL, k.paced)
				stop()
				if rec.body != body {
					t.Fatalf("post %d: a restarted daemon answers differently from the live one:\n restarted: %s\n      live: %s", i, rec.body, body)
				}
			}
			if restartResumes != len(live)-1 {
				t.Errorf("%d resumes over %d restarts with a journaled checkpoint behind them", restartResumes, len(live)-1)
			}
		}},

		{"deadline mid-job, next post continues", func(t *testing.T, k jobKindCase, want string) {
			dir := t.TempDir()
			var resumes int
			_, ts, stop := openDurable(t, dir, &resumes)
			_, first := k.do(t, ts.Client(), ts.URL, k.paced)
			stop()
			// The restarted daemon resumes the job on the next post; the hook
			// holds that post inside the resume until its deadline has passed.
			var calls atomic.Int32
			release := make(chan struct{})
			_, ts, stop = openDurableWith(t, dir, Config{Workers: 2}, func() {
				if calls.Add(1) == 1 {
					<-release
				}
			})
			defer stop()
			cut := k.post(t, ts.Client(), ts.URL, strings.TrimSuffix(k.paced, "}")+`,"timeout_ms":50}`)
			close(release)
			if cut.status != http.StatusGatewayTimeout {
				t.Fatalf("post held past its deadline answered %d: %s", cut.status, cut.body)
			}
			if _, next := k.do(t, ts.Client(), ts.URL, k.paced); next.progress != first.progress+1 {
				t.Errorf("after the deadline the job is at %d, want %d", next.progress, first.progress+1)
			}
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want {
				t.Errorf("final after a deadline diverged:\n got: %s\nwant: %s", rec.body, want)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("%d resumes, want 1: the posts after the deadline continue the live job", n)
			}
		}},

		{"failed journal append drops the live job", func(t *testing.T, k jobKindCase, want string) {
			// A step that ran but could not be journaled must not survive in
			// memory: the next post continues from the last journaled
			// checkpoint, as a daemon that crashed there would.
			var resumes int
			s, ts, stop := openDurable(t, t.TempDir(), &resumes)
			defer stop()
			_, first := k.do(t, ts.Client(), ts.URL, k.paced)
			if first.done {
				t.Fatal("job finished in one post")
			}
			closed, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := closed.Close(); err != nil {
				t.Fatal(err)
			}
			swapLog := func(l *store.Log) *store.Log { // a closed log refuses the append
				s.persist.mu.Lock()
				defer s.persist.mu.Unlock()
				old := s.persist.st.Log
				s.persist.st.Log = l
				return old
			}
			good := swapLog(closed.Log)
			if rec := k.post(t, ts.Client(), ts.URL, k.paced); rec.status != http.StatusInternalServerError {
				t.Fatalf("a failed journal append answered %d: %s", rec.status, rec.body)
			}
			swapLog(good)
			if live, _ := k.held(s, first.id); live {
				t.Error("the job that ran an unjournaled step is still live")
			}
			if _, next := k.do(t, ts.Client(), ts.URL, k.paced); next.progress != first.progress+1 {
				t.Errorf("after the failed step the job is at %d, want %d (one past the last journaled)", next.progress, first.progress+1)
			}
			if resumes != 1 {
				t.Errorf("%d resumes, want 1: the post after the failure reads the journaled checkpoint back", resumes)
			}
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want {
				t.Errorf("job diverged after a failed step:\n got: %s\nwant: %s", rec.body, want)
			}
		}},

		{"unresumable checkpoint restarts the job", func(t *testing.T, k jobKindCase, want string) {
			// A checkpoint that does not resume counts as absent: the job
			// restarts from its beginning instead of answering 500 until the
			// entry ages out.
			dir := t.TempDir()
			var resumes int
			_, ts, stop := openDurable(t, dir, &resumes)
			_, first := k.do(t, ts.Client(), ts.URL, k.paced)
			stop()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			journal := st.Journal(k.checkpointRec, first.id)
			cp, ok, err := journal.Latest()
			if err != nil || !ok {
				t.Fatalf("no journaled checkpoint for %s (err %v)", first.id, err)
			}
			if err := journal.SaveProgress(first.progress, k.corrupt(cp)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			_, ts, stop = openDurable(t, dir, &resumes)
			defer stop()
			if _, next := k.do(t, ts.Client(), ts.URL, k.paced); next.id != first.id || next.progress != 1 {
				t.Errorf("job %s at %d after an unresumable checkpoint, want %s restarted to 1", next.id, next.progress, first.id)
			}
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want {
				t.Errorf("restarted job diverged:\n got: %s\nwant: %s", rec.body, want)
			}
			if n := k.unresumable(fetchMetrics(t, ts)); n != 1 {
				t.Errorf("unresumable = %d, want 1", n)
			}
		}},

		{"recovered final served byte-identically", func(t *testing.T, k jobKindCase, want string) {
			dir := t.TempDir()
			var resumes int
			_, ts, stop := openDurable(t, dir, &resumes)
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want {
				t.Fatalf("final diverged:\n got: %s\nwant: %s", rec.body, want)
			}
			stop()
			_, ts, stop = openDurable(t, dir, &resumes)
			defer stop()
			for _, body := range []string{k.full, k.paced} {
				if rec := k.post(t, ts.Client(), ts.URL, body); rec.body != want {
					t.Errorf("recovered final diverged:\n got: %s\nwant: %s", rec.body, want)
				}
			}
			m := fetchMetrics(t, ts)
			if k.recovered(m) != 1 || resumes != 0 || m.StoreAppends != 0 {
				t.Errorf("recovered %d, %d resumes, %d appends: want 1, 0, 0 (the final answers without driving anything)",
					k.recovered(m), resumes, m.StoreAppends)
			}
		}},

		{"evicted job re-runs to byte-identical final", func(t *testing.T, k jobKindCase, want string) {
			// A finished job evicted from its table is forgotten: a post for
			// its ID starts it again, and it runs to the same final.
			_, ts, stop := openDurableWith(t, t.TempDir(), Config{Workers: 2, PlanStoreSize: 2}, nil)
			defer stop()
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want { // [A]
				t.Fatalf("final diverged:\n got: %s\nwant: %s", rec.body, want)
			}
			k.do(t, ts.Client(), ts.URL, k.others[0]) // [A B]
			k.do(t, ts.Client(), ts.URL, k.others[1]) // [B C]
			if _, v := k.do(t, ts.Client(), ts.URL, k.paced); v.done || v.progress != 1 {
				t.Errorf("the evicted job answered at %d (done %v), want started again at 1", v.progress, v.done)
			}
			if rec := k.post(t, ts.Client(), ts.URL, k.full); rec.body != want {
				t.Errorf("the re-run job's final diverged:\n got: %s\nwant: %s", rec.body, want)
			}
		}},

		{"terminal post releases the live job", func(t *testing.T, k jobKindCase, want string) {
			var resumes int
			s, ts, stop := openDurable(t, t.TempDir(), &resumes)
			defer stop()
			_, v := k.do(t, ts.Client(), ts.URL, k.paced)
			if live, final := k.held(s, v.id); !live || final != 0 {
				t.Fatalf("unfinished job holds live=%v final=%dB; want the live job only", live, final)
			}
			var last respRec
			for i := 0; !v.done; i++ {
				if i > 64 {
					t.Fatal("job still not done after 64 paced posts")
				}
				last, v = k.do(t, ts.Client(), ts.URL, k.paced)
			}
			if live, final := k.held(s, v.id); live || final != len(want) {
				t.Errorf("finished job holds live=%v final=%dB; want only the %d final bytes", live, final, len(want))
			}
			if again := k.post(t, ts.Client(), ts.URL, k.paced); again.body != last.body || last.body != want {
				t.Errorf("terminal replay diverged:\n%s\nvs\n%s\nwant %s", again.body, last.body, want)
			}
		}},
	}
	for _, k := range jobKindCases() {
		t.Run(k.name, func(t *testing.T) {
			want := k.reference(t)
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, k, want) })
			}
		})
	}
}

// TestEvictionSparesInFlightJob: with room for one job, a post for job B
// while a post for job A is mid-drive must not evict A's entry, so that a
// second post for A waits for the first and continues from it instead of
// driving A alongside it from the same checkpoint.
func TestEvictionSparesInFlightJob(t *testing.T) {
	for _, k := range jobKindCases() {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Workers: 4, PlanStoreSize: 1}
			_, ts, stop := openDurableWith(t, dir, cfg, nil)
			_, a := k.do(t, ts.Client(), ts.URL, k.paced)
			stop()

			// The restarted daemon resumes A on its next post; the hook holds
			// that post there, with A's entry locked.
			var resumes atomic.Int32
			holding, release := make(chan struct{}), make(chan struct{})
			s, ts, stop := openDurableWith(t, dir, cfg, func() {
				if resumes.Add(1) == 1 {
					close(holding)
					<-release
				}
			})
			defer stop()
			first, second := make(chan respRec, 1), make(chan respRec, 1)
			go func() { first <- k.post(t, ts.Client(), ts.URL, k.paced) }()
			<-holding
			k.do(t, ts.Client(), ts.URL, k.others[0])
			go func() { second <- k.post(t, ts.Client(), ts.URL, k.paced) }()
			// Wait for the second post for A to hold A's entry, or to have
			// resumed A a second time.
			for deadline := time.Now().Add(time.Minute); k.pins(s, a.id) < 2 && resumes.Load() < 2; {
				if time.Now().After(deadline) {
					close(release)
					t.Fatal("the second post for job A never reached it")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			r1, r2 := <-first, <-second
			if n := resumes.Load(); n != 1 {
				t.Errorf("job A resumed %d times: it was driven alongside itself", n)
			}
			if v1, v2 := k.view(t, []byte(r1.body)), k.view(t, []byte(r2.body)); v1.progress != a.progress+1 || v2.progress != a.progress+2 {
				t.Errorf("posts for A after %d answered %d and %d, want %d then %d",
					a.progress, v1.progress, v2.progress, a.progress+1, a.progress+2)
			}
		})
	}
}

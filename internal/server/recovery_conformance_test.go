package server

// The crash-recovery conformance suite: kill a durable daemon at every
// WAL record boundary of a real serving history — and inside records,
// via injected torn writes and bit flips — recover a fresh daemon on the
// surviving bytes, and require the byte-identical final plan and what-if
// responses the uninterrupted run produced. Corrupt tails must be
// detected and truncated, never panicked on or silently replayed; a
// restarted daemon must resume an in-flight plan by plan ID from its
// last journaled level, not start over.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"centralium/internal/store"
)

const (
	recPlanBody     = `{"scenario":"fig10","seed":1,"beam":2,"random_cands":-1}`
	recStepBody     = `{"scenario":"fig10","seed":1,"beam":2,"random_cands":-1,"max_levels":1}`
	recWhatIfBody   = `{"scenario":"fig10","seed":1}`
	recExecBody     = `{"scenario":"fig10","seed":1}`
	recExecStepBody = `{"scenario":"fig10","seed":1,"max_waves":1}`
)

// durableServer opens a store-backed daemon on dir. The store closes at
// test cleanup (after the httptest server, so in-flight handlers finish
// first).
func durableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatalf("open server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// reference is what a store-free daemon answers the serving history's
// posts, uninterrupted: the final plan response, the what-if verdict, and
// the finals of a clean and a violating execution.
type reference struct {
	plan, whatIf    string
	exec, violating string
}

// recViolatingBody is an execution whose reversed fig10 schedule breaks the
// share envelope at wave 0: it rolls back, retries and aborts.
func recViolatingBody(t *testing.T) string {
	t.Helper()
	_, _, reversed := fig10Schedules(t)
	return fmt.Sprintf(`{"scenario":"fig10","seed":%d,"schedule":%q,"envelope":"share=0.6"}`, confSeed, reversed)
}

// referenceRun computes the uninterrupted outputs on a store-free daemon.
func referenceRun(t *testing.T) reference {
	t.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	plan := postPlan(t, ts.Client(), ts.URL, recPlanBody)
	if !decodePlan(t, plan).Done {
		t.Fatalf("reference plan did not finish: %s", plan.body)
	}
	wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody)
	if wi.status != http.StatusOK {
		t.Fatalf("reference whatif status %d: %s", wi.status, wi.body)
	}
	exec := postExecute(t, ts.Client(), ts.URL, recExecBody)
	if st := decodeExecute(t, exec).State; st != "completed" {
		t.Fatalf("reference execution %s, want completed", st)
	}
	viol := postExecute(t, ts.Client(), ts.URL, recViolatingBody(t))
	if r := decodeExecute(t, viol); r.State != "aborted" || r.Rollbacks < 2 {
		t.Fatalf("reference violating execution %s after %d rollbacks, want aborted after retries", r.State, r.Rollbacks)
	}
	return reference{plan: plan.body, whatIf: wi.body, exec: exec.body, violating: viol.body}
}

// serveHistory drives a durable daemon through a real serving history on
// dir — a memoized what-if, a plan advanced one level per request to
// completion, an execution advanced one wave per request to completion,
// then a violating execution in one post — so the WAL accumulates one batch
// per post: a level's states and checkpoint, a wave's checkpoint, the
// rollbacks' checkpoints, and each job's final with its last post's
// records. The what-if journals nothing.
func serveHistory(t *testing.T, dir string, want reference) {
	t.Helper()
	_, ts := durableServer(t, dir)
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.body != want.whatIf {
		t.Fatalf("history whatif diverged from reference:\n got: %swant: %s", wi.body, want.whatIf)
	}
	for i := 0; ; i++ {
		rec := postPlan(t, ts.Client(), ts.URL, recStepBody)
		if decodePlan(t, rec).Done {
			if rec.body != want.plan {
				t.Fatalf("history plan final diverged from reference:\n got: %swant: %s", rec.body, want.plan)
			}
			break
		}
		if i > 64 {
			t.Fatalf("plan still not done after %d stepped requests", i)
		}
	}
	for i := 0; ; i++ {
		rec := postExecute(t, ts.Client(), ts.URL, recExecStepBody)
		if decodeExecute(t, rec).State != "paused" {
			if rec.body != want.exec {
				t.Fatalf("history execution final diverged from reference:\n got: %swant: %s", rec.body, want.exec)
			}
			break
		}
		if i > 64 {
			t.Fatalf("execution still paused after %d stepped requests", i)
		}
	}
	if rec := postExecute(t, ts.Client(), ts.URL, recViolatingBody(t)); rec.body != want.violating {
		t.Fatalf("history violating execution diverged from reference:\n got: %swant: %s", rec.body, want.violating)
	}
}

// walSegments lists dir's WAL segment paths, oldest first.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(paths)
	return paths
}

// cloneDir deep-copies a data directory.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("clone %s: %v", src, err)
	}
	return dst
}

// checkRecovered opens a daemon on a (possibly damaged) data directory
// and requires the byte-identical reference outputs, with every journaled
// checkpoint that survived resuming: a crash never leaves one that names a
// state the log lost.
func checkRecovered(t *testing.T, dir string, want reference) {
	t.Helper()
	_, ts := durableServer(t, dir)
	checkServes(t, ts, want)
}

// checkServes posts the serving history's jobs to a recovered daemon and
// requires the byte-identical reference outputs and no unresumable
// checkpoint.
func checkServes(t *testing.T, ts *httptest.Server, want reference) {
	t.Helper()
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != want.plan {
		t.Fatalf("recovered plan diverged from reference:\n got: %swant: %s", rec.body, want.plan)
	}
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.body != want.whatIf {
		t.Fatalf("recovered whatif diverged from reference:\n got: %swant: %s", wi.body, want.whatIf)
	}
	if rec := postExecute(t, ts.Client(), ts.URL, recExecBody); rec.body != want.exec {
		t.Fatalf("recovered execution diverged from reference:\n got: %swant: %s", rec.body, want.exec)
	}
	if rec := postExecute(t, ts.Client(), ts.URL, recViolatingBody(t)); rec.body != want.violating {
		t.Fatalf("recovered violating execution diverged from reference:\n got: %swant: %s", rec.body, want.violating)
	}
	if m := fetchMetrics(t, ts); m.UnresumablePlans != 0 || m.UnresumableExecs != 0 {
		t.Fatalf("%d recovered plan and %d execution checkpoint(s) did not resume", m.UnresumablePlans, m.UnresumableExecs)
	}
}

// TestRecoveryAtEveryRecordBoundary is the kill matrix: for every WAL
// record boundary in the serving history — every durable state the
// SyncAlways daemon could have died in — recover on exactly that prefix
// and require byte-identical final outputs.
func TestRecoveryAtEveryRecordBoundary(t *testing.T) {
	want := referenceRun(t)
	history := t.TempDir()
	serveHistory(t, history, want)
	// A post is one batch. A plan level's new states go ahead of its
	// checkpoint, so the matrix also kills between a level's states and its
	// checkpoint: the previous level must resume. The violating execution's
	// one post journals its rollbacks' checkpoints, its abort's and its
	// final, so the matrix kills between a rollback checkpoint and the next
	// record, and between the last checkpoint and the final.
	var between, rollbacks, finals int
	recs := walRecords(t, history)
	for i := 1; i < len(recs); i++ {
		switch prev, cur := recs[i-1].typ, recs[i].typ; {
		case prev == recPlanState && cur == recPlanCheckpoint:
			between++
		case prev == recExecCheckpoint && cur == recExecCheckpoint:
			rollbacks++
		case prev == recExecCheckpoint && cur == recExecFinal:
			finals++
		}
	}
	if between < 2 || rollbacks < 2 || finals < 2 {
		t.Fatalf("%d level batches with states, %d consecutive execution checkpoints and %d checkpoint-final pairs: the history has too few multi-record batches to cut",
			between, rollbacks, finals)
	}

	segs := walSegments(t, history)
	kills := 0
	for si, seg := range segs {
		boundaries, err := store.RecordBoundaries(seg)
		if err != nil {
			t.Fatalf("boundaries of %s: %v", seg, err)
		}
		for _, off := range boundaries {
			if si == len(segs)-1 && off == boundaries[len(boundaries)-1] {
				continue // the undamaged full history; covered separately
			}
			kills++
			dir := cloneDir(t, history)
			clonedSegs := walSegments(t, dir)
			if err := os.Truncate(clonedSegs[si], off); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			for _, later := range clonedSegs[si+1:] {
				if err := os.Remove(later); err != nil {
					t.Fatalf("remove: %v", err)
				}
			}
			checkRecovered(t, dir, want)
		}
	}
	if kills < 5 {
		t.Fatalf("kill matrix exercised only %d boundaries — history too shallow to mean anything", kills)
	}
	// And the undamaged history: a clean restart serves both answers.
	checkRecovered(t, cloneDir(t, history), want)
}

// TestRecoveryTornWriteTail kills the daemon mid-record: the newest
// segment ends in a torn half-written frame plus garbage. Recovery must
// truncate the tail and still serve byte-identical outputs.
func TestRecoveryTornWriteTail(t *testing.T) {
	want := referenceRun(t)
	history := t.TempDir()
	serveHistory(t, history, want)

	dir := cloneDir(t, history)
	segs := walSegments(t, dir)
	newest := segs[len(segs)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: half of a plausible frame header plus payload bytes
	// that never got their trailing records.
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store on torn tail: %v", err)
	}
	if st.Log.TruncatedBytes() == 0 {
		t.Fatalf("torn tail was not truncated")
	}
	s, err := Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatalf("open server on torn tail: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer st.Close()
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != want.plan {
		t.Fatalf("post-torn plan diverged:\n got: %swant: %s", rec.body, want.plan)
	}
	after, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() > info.Size() {
		t.Fatalf("torn bytes survived recovery: %d > %d", after.Size(), info.Size())
	}
}

// TestRecoveryTornLevelBatch kills the daemon inside the write of a plan
// level's batch: the newest segment ends halfway through one of the level's
// records — a state, or the checkpoint behind them. Recovery truncates the
// torn record, keeps the whole ones before it, and the plan resumes from the
// previous level to the byte-identical final.
func TestRecoveryTornLevelBatch(t *testing.T) {
	want := referenceRun(t)
	history := t.TempDir()
	serveHistory(t, history, want)

	segs := walSegments(t, history)
	newest := segs[len(segs)-1]
	boundaries, err := store.RecordBoundaries(newest)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, history)
	recs = recs[len(recs)-(len(boundaries)-1):] // the newest segment's records
	// The last level batch: its checkpoint and the state records ahead of it.
	last := -1
	for i := range recs {
		if recs[i].typ == recPlanCheckpoint && i > 0 && recs[i-1].typ == recPlanState {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("the newest segment holds no level batch with states")
	}
	first := last
	for first > 0 && recs[first-1].typ == recPlanState {
		first--
	}
	for i := first; i <= last; i++ {
		dir := cloneDir(t, history)
		cut := boundaries[i] + (boundaries[i+1]-boundaries[i])/2
		if err := os.Truncate(walSegments(t, dir)[len(segs)-1], cut); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, dir, want)
	}
}

// TestRecoveryBitFlipTail flips one bit inside the newest segment's last
// record: the violating execution's final, the tail of its one post's batch.
// The CRC must catch it; recovery truncates the record, and the execution
// resumes from the checkpoint ahead of it and re-derives the lost final
// deterministically.
func TestRecoveryBitFlipTail(t *testing.T) {
	want := referenceRun(t)
	history := t.TempDir()
	serveHistory(t, history, want)
	recs := walRecords(t, history)
	if n := len(recs); n < 2 || recs[n-1].typ != recExecFinal || recs[n-2].typ != recExecCheckpoint || recs[n-2].key != recs[n-1].key {
		t.Fatalf("the history does not end in an execution's checkpoint and final")
	}

	dir := cloneDir(t, history)
	segs := walSegments(t, dir)
	newest := segs[len(segs)-1]
	boundaries, err := store.RecordBoundaries(newest)
	if err != nil {
		t.Fatal(err)
	}
	if len(boundaries) < 2 {
		t.Fatalf("newest segment has no whole record to flip")
	}
	lastStart := boundaries[len(boundaries)-2]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	mid := lastStart + (int64(len(data))-lastStart)/2
	data[mid] ^= 0x10
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store on flipped tail: %v", err)
	}
	if st.Log.TruncatedBytes() == 0 {
		t.Fatalf("flipped record was not truncated")
	}
	s, err := Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatalf("open server on flipped tail: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer st.Close()
	checkServes(t, ts, want)
	m := fetchMetrics(t, ts)
	if m.RecoveredTruncatedBytes == 0 {
		t.Fatalf("metrics do not report the truncated tail")
	}
}

// TestRestartResumesInFlightPlan is the acceptance headline: a daemon
// dies with a plan search half done; its successor picks the search up
// by plan ID at the journaled level — it does not start over — and
// finishes byte-identically.
func TestRestartResumesInFlightPlan(t *testing.T) {
	want := referenceRun(t)
	dir := t.TempDir()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Open(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	first := decodePlan(t, postPlan(t, ts1.Client(), ts1.URL, recStepBody))
	second := decodePlan(t, postPlan(t, ts1.Client(), ts1.URL, recStepBody))
	if first.Done || second.Done {
		t.Fatalf("search finished before the crash point (levels %d, %d)", first.Level, second.Level)
	}
	if second.Level <= first.Level {
		t.Fatalf("stepped requests did not advance: %d then %d", first.Level, second.Level)
	}
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon: same data dir, fresh process state.
	s2, ts2 := durableServer(t, dir)
	if plans, _, _ := s2.Recovered(); plans != 1 {
		t.Fatalf("recovered %d plans, want 1", plans)
	}
	next := decodePlan(t, postPlan(t, ts2.Client(), ts2.URL, recStepBody))
	if next.PlanID != second.PlanID {
		t.Fatalf("restart changed the plan ID: %s vs %s", next.PlanID, second.PlanID)
	}
	if next.Level != second.Level+1 {
		t.Fatalf("restart did not resume at the journaled level: got level %d after %d", next.Level, second.Level)
	}
	rec := postPlan(t, ts2.Client(), ts2.URL, recPlanBody)
	if rec.body != want.plan {
		t.Fatalf("resumed plan diverged from reference:\n got: %swant: %s", rec.body, want.plan)
	}
	m := fetchMetrics(t, ts2)
	if !m.StoreEnabled || m.RecoveredPlans != 1 {
		t.Fatalf("durability metrics wrong after restart: %+v", m)
	}
}

// TestWarmRestartServesFromRecoveredState reopens a finished history: the
// final plan answer comes back byte-identical from the recovered final,
// without a resume. Nothing else was durable: the plan's post rebuilds the
// base cold (one snapshot-cache miss), and the what-if is recomputed to the
// bytes it was memoized with before the restart.
func TestWarmRestartServesFromRecoveredState(t *testing.T) {
	want := referenceRun(t)
	history := t.TempDir()
	serveHistory(t, history, want)

	var resumes int
	s, ts, stop := openDurable(t, history, &resumes)
	defer stop()
	if plans, execs, _ := s.Recovered(); plans != 1 || execs != 2 {
		t.Fatalf("recovered (plans, execs) = (%d, %d), want (1, 2)", plans, execs)
	}
	if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.body != want.plan {
		t.Fatalf("warm plan diverged:\n got: %swant: %s", rec.body, want.plan)
	}
	if resumes != 0 {
		t.Fatalf("a finished plan resumed %d times instead of answering from its final", resumes)
	}
	m0 := fetchMetrics(t, ts)
	if wi := postWhatIf(t, ts.Client(), ts.URL, recWhatIfBody); wi.body != want.whatIf {
		t.Fatalf("warm whatif diverged:\n got: %swant: %s", wi.body, want.whatIf)
	}
	m1 := fetchMetrics(t, ts)
	if m1.MemoHits != m0.MemoHits || m1.MemoMisses != m0.MemoMisses+1 {
		t.Fatalf("whatif after a restart was served from a memo (hits %d -> %d, misses %d -> %d), want it recomputed",
			m0.MemoHits, m1.MemoHits, m0.MemoMisses, m1.MemoMisses)
	}
	if m1.SnapshotCacheMisses != 1 {
		t.Fatalf("%d snapshot-cache misses after a restart, want 1: the base rebuilt once, cold", m1.SnapshotCacheMisses)
	}
}

// TestCompactionPreservesServingState drives a plan one level per post —
// one batch each — through a tiny-segment store to force checkpoint
// compaction, restarts, and requires every answer to survive the rewrite.
func TestCompactionPreservesServingState(t *testing.T) {
	want := referenceRun(t)
	dir := t.TempDir()

	st, err := store.Open(dir, store.Options{SegmentBytes: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Open(Config{Workers: 2, Store: st, CompactSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if wi := postWhatIf(t, ts1.Client(), ts1.URL, recWhatIfBody); wi.body != want.whatIf {
		t.Fatalf("whatif diverged: %s", wi.body)
	}
	for i := 0; ; i++ {
		rec := postPlan(t, ts1.Client(), ts1.URL, recStepBody)
		if decodePlan(t, rec).Done {
			if rec.body != want.plan {
				t.Fatalf("plan diverged: %s", rec.body)
			}
			break
		}
		if i > 64 {
			t.Fatalf("plan still not done after %d stepped requests", i)
		}
	}
	m := fetchMetrics(t, ts1)
	if m.StoreCompactions == 0 {
		t.Fatalf("tiny segments never compacted (%d appends, %d segments)", m.StoreAppends, m.StoreSegments)
	}
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	checkRecovered(t, dir, want)
}

// TestRecoveryRequestBodiesDecode guards against helper drift: the
// bodies above must stay strict-decodable requests.
func TestRecoveryRequestBodiesDecode(t *testing.T) {
	if _, err := DecodePlanRequest([]byte(recPlanBody)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlanRequest([]byte(recStepBody)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWhatIfRequest([]byte(recWhatIfBody)); err != nil {
		t.Fatal(err)
	}
}

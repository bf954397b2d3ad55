package server

import (
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneBatchPerPost: every post that advances a job appends exactly one
// WAL batch — what it journaled, and its final with it — so under the
// default sync policy it costs one log fsync, plus the two fsyncs (file and
// directory) of each object it wrote. It holds for a paced execution, for a
// violating one that rolls back, retries and aborts in one post, and for a
// plan paced one and two levels a post.
func TestOneBatchPerPost(t *testing.T) {
	violating := recViolatingBody(t)
	cases := []struct {
		name string
		// post sends one request and reports whether the job is done.
		post func(t *testing.T, ts *httptest.Server) bool
	}{
		{"paced execution", execPoster(recExecStepBody)},
		{"violating execution", execPoster(violating)},
		{"plan one level a post", planPoster(recStepBody)},
		{"plan two levels a post", planPoster(strings.Replace(recStepBody, `"max_levels":1`, `"max_levels":2`, 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var resumes int
			_, ts, stop := openDurable(t, dir, &resumes)
			defer stop()
			posts := 0
			for done := false; !done; posts++ {
				before := fetchMetrics(t, ts).StoreAppends
				done = tc.post(t, ts)
				if after := fetchMetrics(t, ts).StoreAppends; after != before+1 {
					t.Fatalf("post %d appended %d batches, want 1", posts, after-before)
				}
				if posts > 64 {
					t.Fatal("job still not done after 64 posts")
				}
			}
			m, objects := fetchMetrics(t, ts), objectFiles(t, dir)
			t.Logf("%d posts, %d objects written, %d fsyncs", posts, objects, m.StoreFsyncs)
			if m.StoreFsyncs != int64(posts+2*objects) {
				t.Errorf("%d fsyncs over %d posts and %d objects written, want %d", m.StoreFsyncs, posts, objects, posts+2*objects)
			}
			if resumes != 0 {
				t.Errorf("%d resumes on a daemon that stayed up", resumes)
			}
		})
	}
}

func execPoster(body string) func(*testing.T, *httptest.Server) bool {
	return func(t *testing.T, ts *httptest.Server) bool {
		return decodeExecute(t, postExecute(t, ts.Client(), ts.URL, body)).State != "paused"
	}
}

func planPoster(body string) func(*testing.T, *httptest.Server) bool {
	return func(t *testing.T, ts *httptest.Server) bool {
		return decodePlan(t, postPlan(t, ts.Client(), ts.URL, body)).Done
	}
}

// objectFiles counts the objects in dir's object store.
func objectFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") {
				return fmt.Errorf("object store holds a stray temporary file %s", path)
			}
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCompactionFailureKeepsDurablePost: a post whose batch is durable
// answers from it even when the compaction that follows fails. The failure
// counts in store_errors; the job keeps its final, and the next post answers
// from it without running the job again; and the log still takes the next
// job's batch.
func TestCompactionFailureKeepsDurablePost(t *testing.T) {
	want := referenceRun(t).plan
	dir := t.TempDir()
	var resumes int
	s, ts, stop := openDurable(t, dir, &resumes)
	defer stop()
	s.persist.mu.Lock()
	s.persist.compactEvery = 0 // compact after every batch
	s.persist.mu.Unlock()
	// The open segment still takes appends; the rotation a compaction starts
	// with cannot create its segment.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rec := postPlan(t, ts.Client(), ts.URL, recPlanBody); rec.status != http.StatusOK || rec.body != want {
			t.Fatalf("post %d answered %d:\n got: %swant: %s", i, rec.status, rec.body, want)
		}
	}
	if rec := postExecute(t, ts.Client(), ts.URL, recExecStepBody); rec.status != http.StatusOK {
		t.Fatalf("an execution after the failed compaction answered %d: %s", rec.status, rec.body)
	}
	if m := fetchMetrics(t, ts); m.StoreAppends != 2 || m.StoreErrors != 2 || m.StoreCompactions != 0 {
		t.Errorf("%d batches, %d errors and %d compactions, want 2, 2 and 0", m.StoreAppends, m.StoreErrors, m.StoreCompactions)
	}
	if resumes != 0 {
		t.Errorf("%d resumes: the plan did not keep its final", resumes)
	}
}

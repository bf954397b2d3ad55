package snapshot_test

// What the users of rendered snapshots — the planner's search, the guard's
// campaign, the daemon's /v1/execute — owe them, counted through this
// package's test hook and checked against its full-capture oracle. They live
// here, outside those packages, because the hook and the oracle are not
// exported.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/server"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

var scenarios = []string{"fig10", "decommission", "pod-drain"}

// tally counts hook events; searches evaluate on a pool, so it locks.
type tally struct {
	mu sync.Mutex
	n  map[string]int
}

func watch(t *testing.T) *tally {
	c := &tally{n: map[string]int{}}
	t.Cleanup(snapshot.SetTestHook(func(what string) {
		c.mu.Lock()
		c.n[what]++
		c.mu.Unlock()
	}))
	return c
}

// take returns the counts since the last take.
func (c *tally) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.n
	c.n = map[string]int{}
	return out
}

// memObjects is a guard object store: a map, first write wins.
type memObjects map[string][]byte

func (m memObjects) Put(key string, data []byte) error {
	if _, ok := m[key]; !ok {
		m[key] = bytes.Clone(data)
	}
	return nil
}

func (m memObjects) Get(key string) ([]byte, bool, error) {
	data, ok := m[key]
	return data, ok, nil
}

// sameAsFull compares a capture's renderings with the oracle's for n.
func sameAsFull(t *testing.T, label string, got *snapshot.Snapshot, n *fabric.Network) {
	t.Helper()
	want, err := snapshot.CaptureFull(n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	gfp, _ := got.Fingerprint()
	wfp, _ := want.Fingerprint()
	if !bytes.Equal(g, w) || gfp != wfp {
		t.Fatalf("%s: the capture differs from the full capture of the same network (%d vs %d bytes, %.12s vs %.12s)", label, len(g), len(w), gfp, wfp)
	}
}

// TestStepDecodesNothing: a search that stays up does not turn the bytes it
// just wrote back into a state. After NewSearch (which renders the base once,
// topology included), a whole plan — every level, the terminal migration
// bodies, the baseline scored for the dominance guard — never exports a
// topology again and encodes each state once, in the capture that made it.
// It decodes nothing either, with one exception it shares with a resumed
// search: a beam node that came from a memo entry of an earlier level (another
// schedule prefix had reached the same state and step) holds only that
// entry's bytes, and is decoded, once, if it is expanded — fig10's small
// intent has such nodes, the two larger scenarios have none.
func TestStepDecodesNothing(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // an evaluation pool two wide
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, name := range scenarios {
		snap, p, err := planner.ScenarioSetup(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Beam = 3
		seen := watch(t)
		s, err := planner.NewSearch(snap, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := seen.take(); got["encode"] != 1 || got["topo-export"] != 1 || got["decode"] != 0 {
			t.Fatalf("%s: NewSearch: %v, want the base rendered once and nothing decoded", name, got)
		}
		var afterFirst []byte
		for done := false; !done; {
			if done, err = s.Step(); err != nil {
				t.Fatal(err)
			}
			if afterFirst == nil {
				if afterFirst, err = s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
		got, stats := seen.take(), s.SearchStats()
		if got["topo-export"] != 0 || got["decode"] != got["topo-import"] {
			t.Errorf("%s: a live search rendered or parsed a topology outside a decode: %v", name, got)
		}
		if max := stats.MemoHits; name != "fig10" {
			if got["decode"] != 0 {
				t.Errorf("%s: a live search decoded %d states, want none", name, got["decode"])
			}
		} else if got["decode"] > max/2 {
			t.Errorf("%s: %d decodes for %d memo hits: more than memo-fed beam nodes explain", name, got["decode"], max)
		}
		if got["encode"] == 0 || got["encode"] > stats.StepsEvaluated {
			t.Errorf("%s: %d encodes for %d evaluated steps, want at most one per step", name, got["encode"], stats.StepsEvaluated)
		}

		r, err := planner.ResumeSearch(afterFirst)
		if err != nil {
			t.Fatal(err)
		}
		if got := seen.take(); got["decode"] != 1 || got["encode"] != 0 {
			t.Errorf("%s: ResumeSearch: %v, want the base decoded and nothing encoded", name, got)
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		if got := seen.take(); got["decode"] < 1 || got["decode"] > p.Beam || got["topo-export"] != 0 {
			t.Errorf("%s: first level after a resume: %v, want one decode per expanded beam node (beam %d)", name, got, p.Beam)
		}
	}
}

// TestCaptureFromMatchesFullCaptureOnScenarios walks the three planner
// scenarios the way the search's evaluator does — fork the parent, push one
// step through a planner.Executor, capture against the parent — along the
// §5.3.2 baseline and along its reverse, and runs a guarded campaign whose
// second wave is rolled back once. Every state on the way must be, byte for
// byte, the full capture of the network it came from.
func TestCaptureFromMatchesFullCaptureOnScenarios(t *testing.T) {
	for _, name := range scenarios {
		snap, p, err := planner.ScenarioSetup(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := planner.NewSearch(snap, p)
		if err != nil {
			t.Fatal(err)
		}
		x, err := planner.NewExecutor(p.Intent, nil, p.Workload(), p.OriginAltitude)
		if err != nil {
			t.Fatal(err)
		}
		baseline := s.BaselineSchedule()
		reversed := planner.Schedule{}
		for i := len(baseline.Steps) - 1; i >= 0; i-- {
			reversed.Steps = append(reversed.Steps, baseline.Steps[i])
		}
		for _, sched := range []planner.Schedule{baseline, reversed} {
			parent, err := snap.Rendered()
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range sched.Steps {
				n, err := parent.Restore()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := x.Execute(context.Background(), n, []planner.Step{st}); err != nil {
					t.Fatal(err)
				}
				child, err := snapshot.CaptureFrom(parent, n)
				if err != nil {
					t.Fatal(err)
				}
				sameAsFull(t, fmt.Sprintf("%s %q step %d", name, sched, i), child, n)
				parent = child
			}
		}
	}

	// The guard: every wave's last-good state, checked on the untouched fork
	// restored from it just before the next wave runs, and the terminal one.
	snap, p, err := planner.ScenarioSetup("fig10", 3)
	if err != nil {
		t.Fatal(err)
	}
	c := guard.FromParams(p)
	objects := memObjects{}
	c.Objects = objects
	var lastCP []byte
	c.Journal = guard.JournalFunc(func(_ int, cp []byte) error { lastCP = bytes.Clone(cp); return nil })
	waves := 0
	c.Instrument = func(n *fabric.Network, wave, attempt int) {
		if attempt == 0 { // a retry's fork has already run its backoff
			cp, err := guard.DecodeCheckpoint(lastCP)
			if err != nil {
				t.Fatal(err)
			}
			lastGood, ok, err := objects.Get(cp.LastGood)
			if err != nil || !ok {
				t.Fatalf("wave %d: last-good %.12s not in the object store (err %v)", wave, cp.LastGood, err)
			}
			stored, err := snapshot.DecodeRendered(lastGood)
			if err != nil {
				t.Fatal(err)
			}
			sameAsFull(t, fmt.Sprintf("guard: last-good before wave %d", wave), stored, n)
			waves++
		}
		if wave == 1 && attempt == 0 {
			n.After(time.Millisecond, func() { n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false) })
		}
	}
	res, err := guard.Run(context.Background(), snap, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != guard.StateCompleted || res.Rollbacks == 0 || waves != res.Waves {
		t.Fatalf("campaign %s with %d rollbacks, %d of %d waves checked: want a completed campaign with a rollback\n%s", res.State, res.Rollbacks, waves, res.Waves, res.Log)
	}
	sameAsFull(t, "guard: terminal state", res.Snapshot, res.Net)
	if fp, _ := res.Snapshot.Fingerprint(); fp != res.FinalFP {
		t.Fatalf("Result.FinalFP %.12s is not the terminal snapshot's fingerprint %.12s", res.FinalFP, fp)
	}
}

// TestExecuteEncodesEachStateOnce: a paced /v1/execute post renders the state
// its wave produced exactly once and re-encodes nothing it already holds — not
// the last-good state, not the final state for its fingerprint — and, the
// daemon keeping the execution live between posts, decodes nothing: no
// checkpoint and no last-good state is read back. A campaign's first post
// renders its base too unless something still holds a view of it: the cached
// base keeps its rendering only weakly. Both cases are pinned — the miss after
// a collection with no view held, the hit while a live search on the base
// holds one.
func TestExecuteEncodesEachStateOnce(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postTo := func(path, body string) string {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", path, resp.StatusCode, err, data)
		}
		return string(data)
	}
	post := func(body string) string { t.Helper(); return postTo("/v1/execute", body) }
	// Warm the base (building it renders it once, for its fingerprint).
	post(`{"scenario":"fig10","seed":7,"max_retries":1}`)

	seen := watch(t)
	const paced = `{"scenario":"fig10","seed":7,"max_waves":1}`
	runtime.GC() // no view of the base is held: this empties its weak memo
	first := post(paced)
	if got := seen.take(); got["encode"] != 2 || got["decode"] != 0 {
		t.Errorf("first paced post: %v, want two encodes (the campaign's view of the base, the wave's new state) and no decode", got)
	}
	body, posts := first, 1
	for strings.Contains(body, `"state":"paused"`) {
		body = post(paced)
		posts++
		got := seen.take()
		want := 1
		if strings.Contains(body, `"state":"completed"`) && !strings.Contains(body, fmt.Sprintf(`"waves_done":%d`, posts)) {
			want = 0 // the post that only seals a campaign whose waves are all done
		}
		if got["encode"] != want || got["decode"] != 0 || got["topo-export"] != 0 {
			t.Errorf("paced post %d: %v, want %d encode(s), no decode, no topology export", posts, got, want)
		}
	}
	if !strings.Contains(body, `"state":"completed"`) || !strings.Contains(body, `"final_fingerprint":"`) || posts < 3 {
		t.Fatalf("campaign did not complete over several posts with a final fingerprint (%d posts): %s", posts, body)
	}
	if again := post(paced); again != body {
		t.Fatal("a completed execution must replay its recorded response")
	} else if got := seen.take(); len(got) != 0 {
		t.Errorf("replaying a completed execution touched the codec: %v", got)
	}

	// A paced search on the base stays live between posts and holds its view
	// through a collection; a second campaign's first post shares that
	// rendering and encodes only its wave's new state.
	if plan := postTo("/v1/plan", `{"scenario":"fig10","seed":7,"beam":2,"random_cands":-1,"max_levels":1}`); !strings.Contains(plan, `"done":false`) {
		t.Fatalf("one level finished the plan: nothing holds the base: %s", plan)
	}
	seen.take()
	runtime.GC()
	if body := post(`{"scenario":"fig10","seed":7,"max_waves":1,"max_retries":2}`); !strings.Contains(body, `"state":"paused"`) {
		t.Fatalf("second campaign did not pause after its first wave: %s", body)
	}
	if got := seen.take(); got["encode"] != 1 || got["decode"] != 0 || got["topo-export"] != 0 {
		t.Errorf("second campaign's first post while a search holds the base's view: %v, want one encode (the wave's new state), no decode, no topology export", got)
	}
}

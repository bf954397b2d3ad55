package planner

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"centralium/internal/core"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the planner golden schedule files")

// goldenPlan runs the pinned fig10 search the golden file captures.
func goldenPlan(t *testing.T, workers int) *Result {
	t.Helper()
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	p.Workers = workers
	res, err := Plan(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenSchedule pins the winning schedule byte-for-byte: the same
// seed must produce this exact schedule at any worker width. The golden
// file is the determinism contract's artifact — a change here means the
// search semantics changed, which must be deliberate (-update-golden).
func TestGoldenSchedule(t *testing.T) {
	res := goldenPlan(t, 1)
	got := res.Winner.String() + "\n"

	path := filepath.Join("testdata", "fig10_seed1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("winning schedule drifted from golden:\n got: %q\nwant: %q", got, string(want))
	}
}

// TestWorkerWidthIndependence is the determinism contract across the
// evaluation pool: serial (1 worker) and parallel (4 workers) searches
// must produce byte-identical winners, scores, and search statistics.
func TestWorkerWidthIndependence(t *testing.T) {
	serial := goldenPlan(t, 1)
	parallel := goldenPlan(t, 4)

	if serial.Winner.String() != parallel.Winner.String() {
		t.Fatalf("worker width changed the winner:\n  1: %s\n  4: %s", serial.Winner, parallel.Winner)
	}
	if serial.Score != parallel.Score {
		t.Fatalf("worker width changed the score:\n  1: %s\n  4: %s", serial.Score, parallel.Score)
	}
	if serial.Stats != parallel.Stats {
		t.Fatalf("worker width changed the search stats:\n  1: %+v\n  4: %+v", serial.Stats, parallel.Stats)
	}
	if serial.Baseline.String() != parallel.Baseline.String() || serial.BaselineScore != parallel.BaselineScore {
		t.Fatal("worker width changed the baseline evaluation")
	}
}

// TestCheckpointResumeIdentity freezes the search mid-flight at every
// level boundary, resumes from the serialized checkpoint, and requires
// the byte-identical winner the uninterrupted run produces.
func TestCheckpointResumeIdentity(t *testing.T) {
	full := goldenPlan(t, 2)

	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	p.Workers = 2

	for interrupt := 1; ; interrupt++ {
		s, err := NewSearch(snap, p)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		for i := 0; i < interrupt && !done; i++ {
			if done, err = s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		data, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSearch(data)
		if err != nil {
			t.Fatal(err)
		}
		for {
			d, err := resumed.Step()
			if err != nil {
				t.Fatal(err)
			}
			if d {
				break
			}
		}
		res, err := resumed.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner.String() != full.Winner.String() {
			t.Fatalf("interrupt after level %d changed the winner:\n resumed: %s\n    full: %s",
				interrupt, res.Winner, full.Winner)
		}
		if res.Score != full.Score {
			t.Fatalf("interrupt after level %d changed the score: %s vs %s", interrupt, res.Score, full.Score)
		}
		if done {
			return // interrupted past the final level; every boundary covered
		}
	}
}

// TestResumeAcceptsIndentedCheckpoint: checkpoints are a binary container
// now, but one written by an older build — version-1 JSON, compact or
// indented with two spaces (json.MarshalIndent, which is json.Indent over
// the same bytes) — still resumes to the byte-identical winner, so
// checkpoint files and WALs from those builds stay usable. The version-1
// bytes come from the test-only writer in export_test.go.
func TestResumeAcceptsIndentedCheckpoint(t *testing.T) {
	full := goldenPlan(t, 2)

	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	p.Workers = 2
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	compact, err := s.checkpointV1()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	current, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	for name, v1 := range map[string][]byte{"compact": compact, "indented": indented.Bytes()} {
		resumed, err := ResumeSearch(v1)
		if err != nil {
			t.Fatalf("resume from a %s version-1 checkpoint: %v", name, err)
		}
		if again, err := resumed.Checkpoint(); err != nil || !bytes.Equal(again, current) {
			t.Errorf("%s: the search resumed from version 1 checkpoints differently from the one that wrote it (err %v)", name, err)
		}
		for done := false; !done; {
			if done, err = resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := resumed.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner.String() != full.Winner.String() || res.Score != full.Score {
			t.Fatalf("%s version-1 checkpoint changed the outcome:\n resumed: %s %s\n    full: %s %s",
				name, res.Winner, res.Score, full.Winner, full.Score)
		}
	}
}

// TestResumeAcceptsV2Container: a version-2 container — states named by
// table index, written by the test-only writer in export_test.go — resumes
// to the search that wrote it (its checkpoint is today's, byte for byte) and
// to the byte-identical winner, storeless and with an object store alike.
func TestResumeAcceptsV2Container(t *testing.T) {
	full := goldenPlan(t, 2)

	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	p.Workers = 2
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	v2, err := s.checkpointV2()
	if err != nil {
		t.Fatal(err)
	}
	current, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, objs := range []ObjectStore{nil, newMemObjects()} {
		resumed, err := ResumeSearchWith(v2, objs)
		if err != nil {
			t.Fatalf("resume from a version-2 container (store %v): %v", objs != nil, err)
		}
		if objs == nil {
			if again, err := resumed.Checkpoint(); err != nil || !bytes.Equal(again, current) {
				t.Errorf("the search resumed from version 2 checkpoints differently from the one that wrote it (err %v)", err)
			}
		}
		if _, err := resumed.Drive(context.Background(), 0, nil); err != nil {
			t.Fatal(err)
		}
		res, err := resumed.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner.String() != full.Winner.String() || res.Score != full.Score {
			t.Fatalf("version-2 container changed the outcome:\n resumed: %s %s\n    full: %s %s",
				res.Winner, res.Score, full.Winner, full.Score)
		}
	}
}

// TestGoldenRunLeavesConfigsUnedited is the immutability rule of core.Config
// as a property of the golden search, which deploys bare and MinNextHop-50
// variants of the shared intent configs all along: every program still
// renders to what it rendered to when it was first asked. The intent's
// programs, rendered before the first level, must match a fresh marshal of
// their configs after the last; every state the search memoized
// must carry, per speaker, exactly the bytes a fresh marshal of the restored
// speaker's config gives.
func TestGoldenRunLeavesConfigsUnedited(t *testing.T) {
	t.Run("fig10", func(t *testing.T) { goldenRunLeavesConfigsUnedited(t, "fig10") })
	// The decommission intent carries the percentage thresholds a
	// MinNextHop step overrides.
	t.Run("decommission", func(t *testing.T) { goldenRunLeavesConfigsUnedited(t, "decommission") })
}

func goldenRunLeavesConfigsUnedited(t *testing.T, scenario string) {
	snap, p, err := ScenarioSetup(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	p.Workers = 4
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range s.ev.x.programs {
		prog.JSON() // render now what the search would render at its first terminal phase
	}
	for done := false; !done; {
		if done, err = s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	unedited := func(where string, prog *core.Program) {
		t.Helper()
		want, err := json.Marshal(prog.Config())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prog.JSON(), want) {
			t.Fatalf("%s: config edited after it was compiled:\n rendered: %s\n      now: %s", where, prog.JSON(), want)
		}
	}
	for d, prog := range s.ev.x.programs {
		unedited("intent for "+string(d), prog)
	}
	states, overridden := 0, 0
	for key, me := range s.memo {
		if me.child == nil {
			continue
		}
		child, err := snapshot.Decode(me.child)
		if err != nil {
			t.Fatal(err)
		}
		n, err := child.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range sortedDevices(p.Intent) {
			prog := n.Speaker(d).Program()
			unedited(key+" "+string(d), prog)
			if !bytes.Equal(prog.JSON(), s.ev.x.programs[d].JSON()) && prog.Config().Version != 0 {
				overridden++
			}
		}
		states++
	}
	if states == 0 || overridden == 0 {
		t.Fatalf("vacuous: %d memoized states, %d speakers running a step's variant of their intent config", states, overridden)
	}
	// One compile per distinct config per search: a step without knobs
	// deploys the search's own program, by pointer, to every fork — the
	// captured child carries it — and a step with knobs compiles its copy.
	dev := sortedDevices(p.Intent)[0]
	for _, st := range []Step{{Devices: []topo.DeviceID{dev}}, {Devices: []topo.DeviceID{dev}, Bare: true}} {
		me, err := s.ev.evalStep(s.root, st)
		if err != nil {
			t.Fatal(err)
		}
		n, err := me.snap.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if shared := n.Speaker(dev).Program() == s.ev.x.programs[dev]; shared == st.Bare {
			t.Fatalf("step %q: %s runs the search's compiled program: %v", st, dev, shared)
		}
	}
}

// TestStepIntentCopiesOnWrite: a step's projection of the intent shares
// what it does not change — the whole config, by pointer, for a step without
// knobs, which is what lets a fork deploy the search's compiled program — and
// never writes into the shared configs.
func TestStepIntentCopiesOnWrite(t *testing.T) {
	_, p, err := ScenarioSetup("decommission", 1)
	if err != nil {
		t.Fatal(err)
	}
	devs := sortedDevices(p.Intent)
	before, _ := json.Marshal(p.Intent)
	for _, st := range []Step{{Devices: devs}, {Devices: devs, Bare: true}, {Devices: devs, MinNextHop: 50}, {Devices: devs[:1], Bare: true, MinNextHop: 50}} {
		for d, cfg := range st.Intent(p.Intent) {
			orig := p.Intent[d]
			if plain := !st.Bare && st.MinNextHop == 0; (cfg == orig) != plain || cfg.Version != orig.Version {
				t.Fatalf("step %q: %s must get the intent's own config when the step changes nothing, a copy at the same version when it does", st, d)
			}
			if st.Bare != cfg.IsEmpty() {
				t.Fatalf("step %q: %s bare %v, config empty %v", st, d, st.Bare, cfg.IsEmpty())
			}
			for i, ps := range cfg.PathSelection {
				want := orig.PathSelection[i].BgpNativeMinNextHop.Percent
				if want <= 0 || want == 50 {
					t.Fatalf("fixture: %s statement %d has threshold %v, want one a 50%% override changes", d, i, want)
				}
				if st.MinNextHop > 0 {
					want = float64(st.MinNextHop)
				}
				if ps.BgpNativeMinNextHop.Percent != want {
					t.Fatalf("step %q: %s statement %d threshold %v, want %v", st, d, i, ps.BgpNativeMinNextHop.Percent, want)
				}
			}
		}
		if after, _ := json.Marshal(p.Intent); !bytes.Equal(before, after) {
			t.Fatalf("step %q edited the shared intent:\nbefore: %s\n after: %s", st, before, after)
		}
	}
}

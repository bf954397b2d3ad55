package planner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"centralium/internal/core"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the planner golden schedule files")

// goldenParams is the pinned fig10 search the golden file captures.
func goldenParams(t *testing.T) (*snapshot.Snapshot, Params) {
	t.Helper()
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare = true
	p.BatchSizes = []int{1, 2}
	p.MinNextHops = []int{50}
	return snap, p
}

// goldenPlan runs the golden search at the current GOMAXPROCS.
func goldenPlan(t *testing.T) *Result {
	t.Helper()
	res, err := Plan(goldenParams(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenSchedule pins the winning schedule byte-for-byte: the same
// seed must produce this exact schedule at any pool width (run it under
// -cpu 1,2,4). The golden file is the determinism contract's artifact — a
// change here means the search semantics changed, which must be deliberate
// (-update-golden).
func TestGoldenSchedule(t *testing.T) {
	res := goldenPlan(t)
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
// evaluation pool, whose width is GOMAXPROCS: the inline pool (1) and
// parallel ones (2, 4) must produce byte-identical winners, scores, and
// search statistics.
func TestWorkerWidthIndependence(t *testing.T) {
	atWidth(t, 1)
	serial := goldenPlan(t)
	for _, width := range []int{2, 4} {
		atWidth(t, width)
		parallel := goldenPlan(t)
		if serial.Winner.String() != parallel.Winner.String() {
			t.Fatalf("pool width changed the winner:\n  1: %s\n  %d: %s", serial.Winner, width, parallel.Winner)
		}
		if serial.Score != parallel.Score {
			t.Fatalf("pool width changed the score:\n  1: %s\n  %d: %s", serial.Score, width, parallel.Score)
		}
		if serial.Stats != parallel.Stats {
			t.Fatalf("pool width changed the search stats:\n  1: %+v\n  %d: %+v", serial.Stats, width, parallel.Stats)
		}
		if serial.Baseline.String() != parallel.Baseline.String() || serial.BaselineScore != parallel.BaselineScore {
			t.Fatalf("pool width %d changed the baseline evaluation", width)
		}
	}
}

// TestCheckpointResumeIdentity freezes the search mid-flight at every
// level boundary, resumes from the serialized checkpoint, and requires
// the byte-identical winner the uninterrupted run produces.
func TestCheckpointResumeIdentity(t *testing.T) {
	atWidth(t, 2)
	full := goldenPlan(t)
	snap, p := goldenParams(t)

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

// TestResumeRefusesLegacyCheckpoints: the readers of older checkpoints are
// gone. A version-2 container and a version-1 JSON object, compact or
// indented, are refused with ErrCheckpointVersion, which the daemon answers
// by restarting the plan. A version-3 manifest that still carries the
// retired "workers" field resumes to the golden winner: JSON decoding
// ignores the field.
func TestResumeRefusesLegacyCheckpoints(t *testing.T) {
	full := goldenPlan(t)
	snap, p := goldenParams(t)
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	current := mustCheckpoint(t, s)
	cp, table := mustRead(t, current)

	v2, err := encodeContainer(map[string]any{"version": 2, "base": 0, "beam": []any{}}, tableStates(table))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"version-2 container":  v2,
		"version-1 JSON":       []byte(`{"version":1,"params":{},"level":1,"base":"AAAA","beam":[]}`),
		"indented JSON":        []byte("{\n  \"version\": 1\n}"),
		"version-4 container":  mustEncode(t, map[string]any{"version": 4}),
		"unversioned manifest": mustEncode(t, map[string]any{"level": 1}),
	} {
		for _, objs := range []ObjectStore{nil, newMemObjects()} {
			if _, err := ResumeSearchWith(data, objs); !errors.Is(err, ErrCheckpointVersion) {
				t.Errorf("%s (store %v): resume error %v, want ErrCheckpointVersion", name, objs != nil, err)
			}
		}
	}

	// The parent's manifests carried the pool width.
	manifest, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	withWorkers := bytes.Replace(manifest, []byte(`"params":{`), []byte(`"params":{"workers":2,`), 1)
	if bytes.Equal(withWorkers, manifest) {
		t.Fatal("fixture: no params object in the manifest")
	}
	old, err := encodeContainer(json.RawMessage(withWorkers), tableStates(table))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSearch(old)
	if err != nil {
		t.Fatalf("a version-3 manifest carrying workers does not resume: %v", err)
	}
	if again := mustCheckpoint(t, resumed); !bytes.Equal(again, current) {
		t.Error("the search resumed from a manifest carrying workers checkpoints differently from the one that wrote it")
	}
	if _, err := resumed.Drive(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.String() != full.Winner.String() || res.Score != full.Score || res.Stats != full.Stats {
		t.Fatalf("a manifest carrying workers changed the outcome:\n resumed: %s %s %+v\n    full: %s %s %+v",
			res.Winner, res.Score, res.Stats, full.Winner, full.Score, full.Stats)
	}
}

// mustEncode lays out a container holding manifest and no states.
func mustEncode(t *testing.T, manifest any) []byte {
	t.Helper()
	data, err := encodeContainer(manifest, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
	atWidth(t, 4)
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

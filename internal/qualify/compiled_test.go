package qualify

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// compiledBase is one planner scenario's captured base and parameters.
type compiledBase struct {
	snap *snapshot.Snapshot
	p    planner.Params
}

func loadCompiledBase(t *testing.T, scenario string) compiledBase {
	t.Helper()
	snap, p, err := planner.ScenarioSetup(scenario, 5)
	if err != nil {
		t.Fatal(err)
	}
	return compiledBase{snap: snap, p: p}
}

func (b compiledBase) fork(t *testing.T) *fabric.Network {
	t.Helper()
	n, err := b.snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// spec is the what-if qualification of schedule on a fresh fork, as
// centraliumd's /v1/whatif asks for it (with a funnel bound, so some
// schedules fail on a transient).
func (b compiledBase) spec(t *testing.T, intent controller.Intent, schedule [][]topo.DeviceID, compiled map[topo.DeviceID]*core.Program) Spec {
	return Spec{
		Name:           "compiled-path",
		Net:            b.fork(t),
		Intent:         intent,
		Compiled:       compiled,
		OriginAltitude: b.p.OriginAltitude,
		Workload:       b.p.Demands,
		Invariants:     []Invariant{NoBlackholes(), NoLoops(), FunnelBound(b.p.Watch, 0.6)},
		Schedule:       schedule,
	}
}

// schedules are the wave schedules qualified per scenario: the §5.3.2
// default (nil), the same waves reversed (the uncoordinated order the gate
// exists to catch), every device in one wave, and two seeded shuffles dealt
// into two waves.
func (b compiledBase) schedules(t *testing.T) map[string][][]topo.DeviceID {
	t.Helper()
	ctl := &controller.Controller{Topo: b.fork(t).Topo}
	reversed := ctl.Waves(controller.Rollout{Intent: b.p.Intent, OriginAltitude: b.p.OriginAltitude})
	slices.Reverse(reversed)
	out := map[string][][]topo.DeviceID{
		"default":  nil,
		"reversed": reversed,
		"one-wave": {b.p.Intent.Devices()},
	}
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"shuffle-a", "shuffle-b"} {
		devs := b.p.Intent.Devices()
		rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
		cut := 1 + rng.Intn(len(devs)-1)
		out[name] = [][]topo.DeviceID{devs[:cut], devs[cut:]}
	}
	return out
}

func runSpec(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunCompiledMatchesCompiling is the byte-identity contract of the
// compiled path: on every planner scenario and several schedules, Run with
// Spec.Compiled reports exactly what Run without it reports, leaves the
// network in the byte-identical state, and each intent device's speaker
// ends up running the very program it was handed.
func TestRunCompiledMatchesCompiling(t *testing.T) {
	for _, scenario := range planner.ScenarioNames() {
		b := loadCompiledBase(t, scenario)
		progs, err := b.p.Intent.Compile(nil)
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		for name, sched := range b.schedules(t) {
			plain := b.spec(t, b.p.Intent, sched, nil)
			want := runSpec(t, plain)
			shared := b.spec(t, b.p.Intent, sched, progs)
			got := runSpec(t, shared)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: report with programs\n%s\nwithout\n%s", scenario, name, got, want)
			}
			if !bytes.Equal(fingerprintNet(t, shared.Net), fingerprintNet(t, plain.Net)) {
				t.Errorf("%s/%s: deploying the programs left a different network state", scenario, name)
			}
			for d, prog := range progs {
				if p := shared.Net.Speaker(d).Program(); p != prog {
					t.Errorf("%s/%s: %s runs a program other than the one passed in", scenario, name, d)
				}
			}
		}
	}
}

// TestRunCompiledFallsBack pins what a program that does not stand for the
// pushed config does: nothing. A program compiled from an equal copy of the
// config (another pointer) and a device missing from the map compile as
// before; a config that does not compile, and is therefore absent from the
// intent's programs, fails the rollout with today's violation text.
func TestRunCompiledFallsBack(t *testing.T) {
	b := loadCompiledBase(t, "fig10")
	progs, err := b.p.Intent.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	devs := b.p.Intent.Devices()
	copied, missing := devs[0], devs[1]
	cp := *b.p.Intent[copied]
	other, err := core.Compile(&cp)
	if err != nil {
		t.Fatal(err)
	}
	mixed := make(map[topo.DeviceID]*core.Program, len(progs))
	for d, prog := range progs {
		mixed[d] = prog
	}
	mixed[copied] = other
	delete(mixed, missing)

	want := runSpec(t, b.spec(t, b.p.Intent, nil, nil))
	spec := b.spec(t, b.p.Intent, nil, mixed)
	if got := runSpec(t, spec); !reflect.DeepEqual(got, want) {
		t.Errorf("fallback report\n%s\nwant\n%s", got, want)
	}
	for _, d := range devs {
		prog := spec.Net.Speaker(d).Program()
		switch d {
		case copied, missing:
			if prog == other || prog == progs[d] || prog.Config() != b.p.Intent[d] {
				t.Errorf("%s: want a program freshly compiled from the intent's config", d)
			}
		default:
			if prog != progs[d] {
				t.Errorf("%s: runs a program other than the one passed in", d)
			}
		}
	}

	// An invalid config: the shared compile leaves it out, and the rollout's
	// pre-flight reports it byte for byte as it does with no programs.
	bad := make(controller.Intent, len(b.p.Intent))
	for d, cfg := range b.p.Intent {
		bad[d] = cfg
	}
	bad[missing] = &core.Config{PathSelection: []core.PathSelectionStatement{{Name: ""}}}
	badProgs, err := bad.Compile(nil)
	if err == nil {
		t.Fatal("invalid config compiled")
	}
	if _, ok := badProgs[missing]; ok || len(badProgs) != len(bad)-1 {
		t.Fatalf("Compile kept %d of %d programs, want every valid one", len(badProgs), len(bad))
	}
	want = runSpec(t, b.spec(t, bad, nil, nil))
	got := runSpec(t, b.spec(t, bad, nil, badProgs))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("invalid-config report\n%s\nwant\n%s", got, want)
	}
	wantDetail := "controller: intent for " + string(missing) + ": core: path-selection statement 0 has no name"
	if got.Passed || len(got.Violations) != 1 || got.Violations[0].Invariant != "rollout" || got.Violations[0].Detail != wantDetail {
		t.Errorf("violations = %+v, want one rollout violation %q", got.Violations, wantDetail)
	}
}

package controller

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"centralium/internal/core"
	"centralium/internal/topo"
)

// recordingBackend is a deployment backend with injectable per-call
// failures: enough surface to exercise every partial-failure path of
// RunCtx and ExecuteCtx without a fabric.
type recordingBackend struct {
	configs map[topo.DeviceID]*core.Config
	// sequence records every deploy in order (including unwind deploys).
	sequence []topo.DeviceID
	calls    int
	// failOn maps a 1-based deploy call number to the error it returns.
	failOn map[int]error
	// onCall runs before each deploy (the cancellation hook).
	onCall func(call int)
}

func newRecordingBackend(prior map[topo.DeviceID]*core.Config) *recordingBackend {
	cfgs := make(map[topo.DeviceID]*core.Config)
	for d, c := range prior {
		cfgs[d] = c
	}
	return &recordingBackend{configs: cfgs, failOn: map[int]error{}}
}

func (b *recordingBackend) deploy(d topo.DeviceID, cfg *core.Config) error {
	b.calls++
	if b.onCall != nil {
		b.onCall(b.calls)
	}
	if err := b.failOn[b.calls]; err != nil {
		return err
	}
	b.sequence = append(b.sequence, d)
	b.configs[d] = cfg
	return nil
}

func (b *recordingBackend) fetch(d topo.DeviceID) *core.Config {
	cfg, ok := b.configs[d]
	if !ok {
		return nil
	}
	return cfg
}

// snapshot renders the backend's deployed state for pre/post comparison.
// An empty config is the same as no config — that is how the unwind
// clears a device that carried nothing before the rollout — so empty
// entries are dropped.
func (b *recordingBackend) snapshot() map[topo.DeviceID]*core.Config {
	out := make(map[topo.DeviceID]*core.Config, len(b.configs))
	for d, c := range b.configs {
		if c.Version == 0 && len(c.PathSelection) == 0 {
			continue
		}
		out[d] = c
	}
	return out
}

// errpathFixture is the shared rollout: four devices in two explicit
// waves, with b and c carrying prior configs and a and d bare.
func errpathFixture() (Intent, [][]topo.DeviceID, map[topo.DeviceID]*core.Config) {
	intent := Intent{
		"a": {Version: 101}, "b": {Version: 102},
		"c": {Version: 103}, "d": {Version: 104},
	}
	schedule := [][]topo.DeviceID{{"a", "b"}, {"c", "d"}}
	prior := map[topo.DeviceID]*core.Config{
		"b": {Version: 11},
		"c": {Version: 12},
	}
	return intent, schedule, prior
}

func TestRunCtxPartialFailurePaths(t *testing.T) {
	boom := errors.New("switch agent refused")
	for _, tc := range []struct {
		name string
		// arrange mutates the backend and returns the context to run under.
		arrange func(b *recordingBackend) context.Context
		unwind  bool
		wantErr []string // substrings the error must carry, in any order
		// wantPreState asserts the backend ends at the pre-rollout state.
		wantPreState bool
		// wantDeploys is the expected deploy sequence (nil to skip).
		wantDeploys []topo.DeviceID
	}{
		{
			name: "deploy fails mid-wave, unwind restores pre-state",
			arrange: func(b *recordingBackend) context.Context {
				b.failOn[3] = boom // device c, second wave
				return context.Background()
			},
			unwind:       true,
			wantErr:      []string{"deploy to c", "unwound 2 deployed device(s)"},
			wantPreState: true,
			// a, b deploy; c fails; unwind redeploys b then a (reverse).
			wantDeploys: []topo.DeviceID{"a", "b", "b", "a"},
		},
		{
			name: "deploy fails without unwind leaves partial deployment",
			arrange: func(b *recordingBackend) context.Context {
				b.failOn[3] = boom
				return context.Background()
			},
			unwind:      false,
			wantErr:     []string{"deploy to c"},
			wantDeploys: []topo.DeviceID{"a", "b"},
		},
		{
			name: "first-device failure has nothing to unwind",
			arrange: func(b *recordingBackend) context.Context {
				b.failOn[1] = boom
				return context.Background()
			},
			unwind:       true,
			wantErr:      []string{"deploy to a"},
			wantPreState: true,
			wantDeploys:  nil,
		},
		{
			name: "cancellation mid-rollout unwinds",
			arrange: func(b *recordingBackend) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				b.onCall = func(call int) {
					if call == 2 {
						cancel() // takes effect before device c
					}
				}
				return ctx
			},
			unwind:       true,
			wantErr:      []string{"cancelled before c", "unwound 2 deployed device(s)"},
			wantPreState: true,
			wantDeploys:  []topo.DeviceID{"a", "b", "b", "a"},
		},
		{
			name: "unwind failure is reported, remaining devices still restored",
			arrange: func(b *recordingBackend) context.Context {
				b.failOn[3] = boom // device c fails
				b.failOn[4] = boom // first unwind deploy (b) fails too
				return context.Background()
			},
			unwind:  true,
			wantErr: []string{"deploy to c", "unwind incomplete", "redeploy prior config to b"},
			// b's restore failed but a's still ran.
			wantDeploys: []topo.DeviceID{"a", "b", "a"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			intent, schedule, prior := errpathFixture()
			b := newRecordingBackend(prior)
			pre := b.snapshot()
			ctx := tc.arrange(b)
			c := &Controller{Deploy: b.deploy, Fetch: b.fetch}
			err := c.RunCtx(ctx, Rollout{
				Intent: intent, Schedule: schedule, UnwindOnFailure: tc.unwind,
			})
			if err == nil {
				t.Fatalf("rollout succeeded, want failure")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q missing %q", err, want)
				}
			}
			if tc.wantPreState && !reflect.DeepEqual(b.snapshot(), pre) {
				t.Fatalf("backend not at pre-state:\n got %v\nwant %v", b.snapshot(), pre)
			}
			if tc.wantDeploys != nil || len(b.sequence) > 0 {
				if !reflect.DeepEqual(b.sequence, tc.wantDeploys) {
					t.Fatalf("deploy sequence = %v, want %v", b.sequence, tc.wantDeploys)
				}
			}
		})
	}
}

func TestRunCtxUnwindRestoresBareDevicesToEmpty(t *testing.T) {
	intent, schedule, prior := errpathFixture()
	b := newRecordingBackend(prior)
	b.failOn[4] = errors.New("boom") // device d, after a/b/c deployed
	c := &Controller{Deploy: b.deploy, Fetch: b.fetch}
	err := c.RunCtx(context.Background(), Rollout{
		Intent: intent, Schedule: schedule, UnwindOnFailure: true,
	})
	if err == nil || !strings.Contains(err.Error(), "unwound 3") {
		t.Fatalf("err = %v", err)
	}
	// a had no prior config: the unwind deploys an empty config, removing
	// the RPA behavior rather than leaving wave 1's config live.
	if got := b.configs["a"]; got == nil || got.Version != 0 || len(got.PathSelection) != 0 {
		t.Fatalf("device a after unwind = %+v, want empty config", b.configs["a"])
	}
	// b and c return to their prior versions.
	if b.configs["b"].Version != 11 || b.configs["c"].Version != 12 {
		t.Fatalf("prior configs not restored: b=%+v c=%+v", b.configs["b"], b.configs["c"])
	}
}

func TestRunCtxUnwindRequiresFetch(t *testing.T) {
	intent, schedule, _ := errpathFixture()
	b := newRecordingBackend(nil)
	c := &Controller{Deploy: b.deploy} // no Fetch
	err := c.RunCtx(context.Background(), Rollout{
		Intent: intent, Schedule: schedule, UnwindOnFailure: true,
	})
	if err == nil || !strings.Contains(err.Error(), "needs Controller.Fetch") {
		t.Fatalf("err = %v", err)
	}
	if b.calls != 0 {
		t.Fatalf("rollout touched %d device(s) despite the config error", b.calls)
	}
}

func TestRunCtxCancelledBeforeStartTouchesNothing(t *testing.T) {
	intent, schedule, prior := errpathFixture()
	b := newRecordingBackend(prior)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Controller{Deploy: b.deploy, Fetch: b.fetch}
	err := c.RunCtx(ctx, Rollout{Intent: intent, Schedule: schedule, UnwindOnFailure: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(b.sequence) != 0 {
		t.Fatalf("cancelled rollout deployed %v", b.sequence)
	}
}

func TestExecuteCtxRemovesBasePolicyOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name       string
		verifyErr  error
		deployFail bool
		removeErr  error
		wantErr    []string
		wantRemove bool
	}{
		{
			name:       "rollout failure removes base policy",
			deployFail: true,
			wantErr:    []string{"deploy to a", "base policy removed"},
			wantRemove: true,
		},
		{
			name:       "verification failure removes base policy",
			verifyErr:  errors.New("community missing on eb0"),
			wantErr:    []string{"base policy verification", "base policy removed"},
			wantRemove: true,
		},
		{
			name:       "removal failure is folded into the error",
			deployFail: true,
			removeErr:  errors.New("origination pinned"),
			wantErr:    []string{"deploy to a", "base policy removal failed: origination pinned"},
			wantRemove: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			intent, schedule, prior := errpathFixture()
			b := newRecordingBackend(prior)
			if tc.deployFail {
				b.failOn[1] = errors.New("switch agent refused")
			}
			c := &Controller{Deploy: b.deploy, Fetch: b.fetch}
			applied, removed := false, false
			err := c.ExecuteCtx(context.Background(), OrchestratedChange{
				Name:            "guarded change",
				ApplyBasePolicy: func() error { applied = true; return nil },
				VerifyBasePolicy: func() error {
					return tc.verifyErr
				},
				RemoveBasePolicy: func() error {
					removed = true
					return tc.removeErr
				},
				Rollout: Rollout{Intent: intent, Schedule: schedule, UnwindOnFailure: true},
			})
			if err == nil {
				t.Fatalf("change succeeded, want failure")
			}
			if !applied {
				t.Fatalf("base policy never applied")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q missing %q", err, want)
				}
			}
			if removed != tc.wantRemove {
				t.Fatalf("removed = %v, want %v", removed, tc.wantRemove)
			}
		})
	}
}

func TestExecuteCtxApplyFailureSkipsRemoval(t *testing.T) {
	c := &Controller{Deploy: func(topo.DeviceID, *core.Config) error { return nil }}
	removed := false
	err := c.ExecuteCtx(context.Background(), OrchestratedChange{
		Name:             "never applied",
		ApplyBasePolicy:  func() error { return fmt.Errorf("rejected") },
		RemoveBasePolicy: func() error { removed = true; return nil },
		Rollout:          Rollout{Intent: Intent{"a": {}}, Schedule: [][]topo.DeviceID{{"a"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "base policy: rejected") {
		t.Fatalf("err = %v", err)
	}
	if removed {
		t.Fatalf("RemoveBasePolicy ran for a change whose apply failed")
	}
}

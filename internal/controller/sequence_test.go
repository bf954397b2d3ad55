package controller

import (
	"context"
	"errors"
	"strings"
	"testing"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// layerIntent builds an empty-config intent over the given Fig10 layers.
func layerIntent(tp *topo.Topology, layers ...topo.Layer) Intent {
	in := Intent{}
	for _, l := range layers {
		for _, d := range tp.ByLayer(l) {
			in[d.ID] = &core.Config{}
		}
	}
	return in
}

// TestExecuteSequencing drives full intents through the real rollout path
// (controller.ExecuteCtx) with a recording backend and asserts the §5.3.2
// layer ordering of the actual deployments — not just the Waves plan.
func TestExecuteSequencing(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})

	cases := []struct {
		name    string
		layers  []topo.Layer
		removal bool
		// wantLayers is the expected layer of each successive wave.
		wantLayers []topo.Layer
	}{
		{
			name:       "bottom-up deployment (§5.3.2)",
			layers:     []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA},
			wantLayers: []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA},
		},
		{
			name:       "removal reverses to top-down",
			layers:     []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA},
			removal:    true,
			wantLayers: []topo.Layer{topo.LayerFA, topo.LayerSSW, topo.LayerFSW},
		},
		{
			name:       "mixed-layer intent skips absent layers",
			layers:     []topo.Layer{topo.LayerFSW, topo.LayerFA},
			wantLayers: []topo.Layer{topo.LayerFSW, topo.LayerFA},
		},
		{
			name:       "single-layer intent is one wave",
			layers:     []topo.Layer{topo.LayerSSW},
			wantLayers: []topo.Layer{topo.LayerSSW},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			intent := layerIntent(tp, tc.layers...)
			var order []topo.DeviceID
			settles := 0
			ctl := &Controller{
				Topo:   tp,
				Deploy: func(d topo.DeviceID, _ *core.Config) error { order = append(order, d); return nil },
				Settle: func() { settles++ },
			}
			err := ctl.ExecuteCtx(context.Background(), OrchestratedChange{
				Name: tc.name,
				Rollout: Rollout{
					Intent:         intent,
					OriginAltitude: topo.LayerEB.Altitude(),
					Removal:        tc.removal,
				},
			})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if len(order) != len(intent) {
				t.Fatalf("deployed %d devices, intent has %d", len(order), len(intent))
			}
			// Replay the deployment order against the expected layer
			// sequence: each device must belong to the current expected
			// layer, advancing when a layer's devices are exhausted.
			perLayer := map[topo.Layer]int{}
			for _, l := range tc.layers {
				perLayer[l] = len(tp.ByLayer(l))
			}
			wave, seen := 0, 0
			for _, d := range order {
				got := tp.Device(d).Layer
				if got != tc.wantLayers[wave] {
					t.Fatalf("deployment order %v: %s is layer %v, want %v", order, d, got, tc.wantLayers[wave])
				}
				seen++
				if seen == perLayer[got] {
					wave, seen = wave+1, 0
				}
			}
			if settles < len(tc.wantLayers) {
				t.Fatalf("settled %d times, want at least one per wave (%d)", settles, len(tc.wantLayers))
			}
		})
	}
}

// TestRandomOrderWaves pins the ablation arm's contract: a seeded,
// reproducible permutation, one device per wave.
func TestRandomOrderWaves(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	intent := layerIntent(tp, topo.LayerFSW, topo.LayerSSW, topo.LayerFA)

	a := RandomOrderWaves(intent, 7)
	b := RandomOrderWaves(intent, 7)
	if len(a) != len(intent) {
		t.Fatalf("waves = %d, want %d (one device per wave)", len(a), len(intent))
	}
	flatten := func(waves [][]topo.DeviceID) string {
		var parts []string
		for _, w := range waves {
			if len(w) != 1 {
				t.Fatalf("wave %v has %d devices, want 1", w, len(w))
			}
			parts = append(parts, string(w[0]))
		}
		return strings.Join(parts, ",")
	}
	if flatten(a) != flatten(b) {
		t.Fatalf("same seed, different orders:\n%s\n%s", flatten(a), flatten(b))
	}
	seen := map[topo.DeviceID]bool{}
	for _, w := range a {
		if seen[w[0]] {
			t.Fatalf("device %s appears twice", w[0])
		}
		seen[w[0]] = true
	}
	for d := range intent {
		if !seen[d] {
			t.Fatalf("device %s missing from the permutation", d)
		}
	}
	if flatten(RandomOrderWaves(intent, 8)) == flatten(a) {
		t.Fatal("seeds 7 and 8 produced the same permutation")
	}
}

// TestScheduleOverride verifies that an explicit Rollout.Schedule replaces
// the altitude derivation through the real rollout path, dropping devices
// outside the intent and empty waves.
func TestScheduleOverride(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	n := fabric.New(tp, fabric.Options{Seed: 1})
	intent := layerIntent(tp, topo.LayerFA, topo.LayerSSW)

	var order []topo.DeviceID
	ctl := &Controller{
		Topo: tp,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error {
			order = append(order, d)
			return n.DeployRPA(d, cfg)
		},
		Settle: func() { n.Converge() },
	}
	schedule := [][]topo.DeviceID{
		{topo.FAID(1), "ghost"},          // ghost is not in the intent: dropped
		{topo.FSWID(0, 0)},               // whole wave outside the intent: dropped
		{topo.SSWID(0, 1)},               // explicit out-of-altitude order
		{topo.FAID(0), topo.SSWID(0, 0)}, // mixed-layer wave allowed
	}
	err := ctl.ExecuteCtx(context.Background(), OrchestratedChange{
		Name:    "schedule override",
		Rollout: Rollout{Intent: intent, Schedule: schedule, OriginAltitude: topo.LayerEB.Altitude()},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := []topo.DeviceID{topo.FAID(1), topo.SSWID(0, 1), topo.FAID(0), topo.SSWID(0, 0)}
	if len(order) != len(want) {
		t.Fatalf("deployed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("deployed %v, want %v", order, want)
		}
	}
}

// TestApprovalHook verifies the approval gate: it sees the final wave
// schedule, and a rejection blocks the rollout before any device deploys.
func TestApprovalHook(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	intent := layerIntent(tp, topo.LayerFSW, topo.LayerSSW)

	deployed := 0
	var sawWaves [][]topo.DeviceID
	reject := errors.New("not approved")
	ctl := &Controller{
		Topo:   tp,
		Deploy: func(topo.DeviceID, *core.Config) error { deployed++; return nil },
	}
	err := ctl.Run(Rollout{
		Intent:         intent,
		OriginAltitude: topo.LayerEB.Altitude(),
		Approval: func(waves [][]topo.DeviceID) error {
			sawWaves = waves
			return reject
		},
	})
	if err == nil || !errors.Is(err, reject) {
		t.Fatalf("err = %v, want the approval rejection", err)
	}
	if deployed != 0 {
		t.Fatalf("%d devices deployed despite rejection", deployed)
	}
	if len(sawWaves) != 2 {
		t.Fatalf("approval saw %d waves, want 2 (FSW, SSW)", len(sawWaves))
	}
	// Approval accepts: the rollout proceeds.
	err = ctl.Run(Rollout{
		Intent:         intent,
		OriginAltitude: topo.LayerEB.Altitude(),
		Approval:       func([][]topo.DeviceID) error { return nil },
	})
	if err != nil {
		t.Fatalf("approved rollout failed: %v", err)
	}
	if deployed != len(intent) {
		t.Fatalf("deployed %d, want %d", deployed, len(intent))
	}
}

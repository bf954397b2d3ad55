package experiments

// Warm-started sweeps: every sweep point re-converges a pristine fabric
// before measuring its migration, and within one sweep many points share
// that pre-migration base (the arms of a point always do; the MinNextHop
// ablation shares one base across all four thresholds). With warm-start
// enabled, each distinct base is built once, checkpointed, and forked per
// measurement — cutting sweep wall-clock several-fold while producing
// byte-identical tables, because a restored fork continues exactly like
// the freshly built base it snapshots (see internal/snapshot).

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"centralium/internal/chaos"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

var warmStart atomic.Bool

// SetWarmStart toggles warm-started sweeps process-wide (benchtab's -warm
// flag) and returns the previous setting. Tables are byte-identical either
// way; only wall-clock changes.
func SetWarmStart(on bool) bool { return warmStart.Swap(on) }

// WarmStart reports whether sweeps warm-start from checkpointed bases.
func WarmStart() bool { return warmStart.Load() }

// forkBase captures a freshly built base and forks it n ways. Any error
// here is a bug (the base is quiescent by construction), so it panics like
// the sweeps' other impossible failures.
func forkBase(base *fabric.Network, n int) []*fabric.Network {
	snap, err := snapshot.Capture(base)
	if err != nil {
		panic("experiments: capture sweep base: " + err.Error())
	}
	nets, err := snap.Fork(n)
	if err != nil {
		panic("experiments: fork sweep base: " + err.Error())
	}
	return nets
}

// scenario2Batch measures every parameter set of one Scenario 2 sweep
// point. All sets must share base-shaping fields (geometry, seed, vendor
// knob); they may differ in migration-time fields (UseRPA, KeepFibWarm,
// MinNextHopPercent). Cold: each set builds its own base. Warm: one base,
// forked per set. Results are byte-identical across modes.
func scenario2Batch(ps []migrate.Scenario2Params) []migrate.Scenario2Result {
	out := make([]migrate.Scenario2Result, len(ps))
	if !WarmStart() {
		for i, p := range ps {
			out[i] = migrate.RunScenario2(p)
		}
		return out
	}
	nets := forkBase(migrate.Scenario2Base(ps[0]), len(ps))
	for i, p := range ps {
		out[i] = migrate.RunScenario2On(nets[i], p)
	}
	return out
}

// scenario3Batch is scenario2Batch for the Figure 5 NHG scenario.
func scenario3Batch(ps []migrate.Scenario3Params) []migrate.Scenario3Result {
	out := make([]migrate.Scenario3Result, len(ps))
	if !WarmStart() {
		for i, p := range ps {
			out[i] = migrate.RunScenario3(p)
		}
		return out
	}
	nets := forkBase(migrate.Scenario3Base(ps[0]), len(ps))
	for i, p := range ps {
		out[i] = migrate.RunScenario3On(nets[i], p)
	}
	return out
}

// chaosBatch runs both arms of one chaos scenario/seed point, warm-started
// from one shared pre-migration base when enabled.
func chaosBatch(scenario string, seed int64, arms []chaos.Arm) ([]chaos.RunResult, error) {
	out := make([]chaos.RunResult, len(arms))
	if !WarmStart() {
		for i, arm := range arms {
			r, err := chaos.Run(chaos.RunParams{Scenario: scenario, Arm: arm, Seed: seed})
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	base, err := chaos.BaseNet(scenario, seed)
	if err != nil {
		return nil, err
	}
	nets := forkBase(base, len(arms))
	for i, arm := range arms {
		r, err := chaos.RunOn(nets[i], chaos.RunParams{Scenario: scenario, Arm: arm, Seed: seed})
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// whatIfBranches hands out n independent copies of a converged base for
// the what-if sweep: forks of one checkpoint when warm, the base itself
// plus n-1 fresh rebuilds when cold.
func whatIfBranches(base *fabric.Network, rebuild func() *fabric.Network, n int) []*fabric.Network {
	if WarmStart() {
		return forkBase(base, n)
	}
	nets := make([]*fabric.Network, n)
	nets[0] = base
	for i := 1; i < n; i++ {
		nets[i] = rebuild()
	}
	return nets
}

func init() {
	register("sweep-whatif", "Sweep: per-device what-if drain impact on the Figure 4 mesh (fork-based)", func(seed int64) (string, error) {
		return SweepWhatIf(seed), nil
	})
	// The -json rows price the checkpoint subsystem: the same sweep cold
	// (one converged base per branch) and warm (one base, forked per
	// branch), with the byte-identity of the two outputs asserted inline.
	registerRows("sweep-whatif", func(seed int64) []Row {
		prev := WarmStart()
		defer SetWarmStart(prev)

		SetWarmStart(false)
		start := time.Now()
		cold := SweepWhatIf(seed)
		coldWall := time.Since(start)

		SetWarmStart(true)
		start = time.Now()
		warm := SweepWhatIf(seed)
		warmWall := time.Since(start)

		identical := 0.0
		if cold == warm {
			identical = 1
		}
		return []Row{
			{Label: "cold", Values: map[string]float64{
				"wall_ms": float64(coldWall.Microseconds()) / 1e3,
			}},
			{Label: "warm", Values: map[string]float64{
				"wall_ms":   float64(warmWall.Microseconds()) / 1e3,
				"speedup":   float64(coldWall) / float64(warmWall),
				"identical": identical,
			}},
		}
	})
}

// SweepWhatIf asks, for every aggregation device of the Figure 4 mesh
// (each SSW, each FADU), "what if just this device drained?" — each answer
// measured on its own copy of the converged base (the controller's
// pre-deployment what-if gate runs exactly this fork-and-simulate pattern;
// see controller.WhatIf). The per-branch work is one drain plus
// reconvergence, so the shared base dominates the cost and warm-starting
// pays off most here.
func SweepWhatIf(seed int64) string {
	p := migrate.Scenario2Params{Seed: seed}
	base := migrate.Scenario2Base(p)
	var targets, fadus []topo.DeviceID
	for _, d := range base.Topo.ByLayer(topo.LayerSSW) {
		targets = append(targets, d.ID)
	}
	for _, d := range base.Topo.ByLayer(topo.LayerFADU) {
		targets = append(targets, d.ID)
		fadus = append(fadus, d.ID)
	}
	fair := 1 / float64(len(fadus))

	nets := whatIfBranches(base, func() *fabric.Network { return migrate.Scenario2Base(p) }, len(targets))
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %14s\n", "drained", "events", "funnel/fair", "blackholed")
	for i, dev := range targets {
		n := nets[i]
		n.SetDrained(dev, true)
		events := n.Converge()
		pr := &traffic.Propagator{Net: n}
		res := pr.Run(traffic.UniformDemands(n.Topo.ByLayer(topo.LayerFSW), migrate.DefaultRoute, 100))
		_, share := res.MaxDeviceShare(fadus)
		fmt.Fprintf(&b, "%-12s %10d %14.2f %13.1f%%\n",
			dev, events, share/fair, res.BlackholedFraction()*100)
	}
	b.WriteString("\neach row is one fork of the same converged base: single-device drains\nspread load across the surviving peers without loss.\n")
	return b.String()
}

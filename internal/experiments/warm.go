package experiments

// Forked sweeps: every sweep point measures its migration on a pristine
// converged fabric, and within one sweep many points share that
// pre-migration base (the arms of a point always do; the MinNextHop
// ablation shares one base across all four thresholds). Each distinct base
// is built once, captured, and forked per measurement. A restored fork
// continues exactly like the freshly built base it snapshots (see
// internal/snapshot), so the tables are the ones a rebuild per measurement
// prints; that rebuild survives only as sweepWhatIf's cold arm, the
// reference the tests and the sweep-whatif timing rows compare against.

import (
	"fmt"
	"strings"
	"time"

	"centralium/internal/chaos"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

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

// onForks measures every parameter set of one sweep point on its own fork
// of the point's base. All sets must share the fields that shape the base
// (geometry, seed, vendor knob); they may differ in migration-time fields
// (UseRPA, KeepFibWarm, MinNextHopPercent). Entry i is, byte for byte, what
// the scenario's runner returns for ps[i] after building a base of its own.
func onForks[P, R any](base *fabric.Network, ps []P, run func(*fabric.Network, P) R) []R {
	nets := forkBase(base, len(ps))
	out := make([]R, len(ps))
	for i, p := range ps {
		out[i] = run(nets[i], p)
	}
	return out
}

func scenario2Batch(ps []migrate.Scenario2Params) []migrate.Scenario2Result {
	return onForks(migrate.Scenario2Base(ps[0]), ps, migrate.RunScenario2On)
}

func scenario3Batch(ps []migrate.Scenario3Params) []migrate.Scenario3Result {
	return onForks(migrate.Scenario3Base(ps[0]), ps, migrate.RunScenario3On)
}

// chaosBatch runs the given arms of one chaos scenario/seed point on forks
// of one shared pre-migration base; entry i is chaos.Run of arm i.
func chaosBatch(scenario string, seed int64, arms []chaos.Arm) ([]chaos.RunResult, error) {
	base, err := chaos.BaseNet(scenario, seed)
	if err != nil {
		return nil, err
	}
	nets := forkBase(base, len(arms))
	out := make([]chaos.RunResult, len(arms))
	for i, arm := range arms {
		r, err := chaos.RunOn(nets[i], chaos.RunParams{Scenario: scenario, Arm: arm, Seed: seed})
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func init() {
	register("sweep-whatif", "Sweep: per-device what-if drain impact on the Figure 4 mesh (fork-based)", func(seed int64) (string, error) {
		return SweepWhatIf(seed), nil
	})
	// The -json rows price the checkpoint subsystem: the same sweep on
	// the cold reference arm (one converged base per branch) and forked
	// (one base, forked per branch), with the byte-identity of the two
	// outputs asserted inline.
	registerRows("sweep-whatif", func(seed int64) []Row {
		start := time.Now()
		cold := sweepWhatIf(seed, true)
		coldWall := time.Since(start)

		start = time.Now()
		warm := sweepWhatIf(seed, false)
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
// reconvergence, so the shared base dominates the cost and forking pays
// off most here.
func SweepWhatIf(seed int64) string { return sweepWhatIf(seed, false) }

// sweepWhatIf is the sweep on forks of one base or, with cold set, on the
// reference arm: the base itself plus one fresh rebuild per further branch.
func sweepWhatIf(seed int64, cold bool) string {
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

	var nets []*fabric.Network
	if cold {
		nets = append(nets, base)
		for len(nets) < len(targets) {
			nets = append(nets, migrate.Scenario2Base(p))
		}
	} else {
		nets = forkBase(base, len(targets))
	}
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

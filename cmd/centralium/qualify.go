package main

import (
	"flag"
	"fmt"
	"io"

	"centralium/internal/controller"
	"centralium/internal/migrate"
	"centralium/internal/qualify"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// suite is one named qualification spec, built fresh per run (each owns a
// network).
type suite struct {
	name  string
	build func(seed int64) qualify.Spec
}

// suites lists the qualification suites in running order.
var suites = []suite{
	{"equalization", func(seed int64) qualify.Spec {
		rig := migrate.Fig10Base(seed)
		return qualify.Spec{
			Name:           "equalization (bottom-up)",
			Net:            rig.Net,
			Intent:         rig.Intent,
			OriginAltitude: topo.LayerEB.Altitude(),
			Workload:       rig.Demands,
			Invariants: []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.NoLoops(),
				qualify.FunnelBound(rig.FAs, 0.75),
				qualify.MinPaths(topo.FAID(0), "0.0.0.0/0", 2),
			},
		}
	}},
	{"equalization-topdown", func(seed int64) qualify.Spec {
		rig := migrate.Fig10Base(seed)
		return qualify.Spec{
			Name:           "equalization (top-down, the Figure 10 hazard)",
			Net:            rig.Net,
			Intent:         rig.Intent,
			OriginAltitude: topo.LayerEB.Altitude(),
			Removal:        true, // wrong order on purpose
			Workload:       rig.Demands,
			Invariants: []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.FunnelBound(rig.FAs, 0.75),
			},
		}
	}},
	{"protection", func(seed int64) qualify.Spec {
		mesh := topo.BuildMesh(topo.MeshParams{Planes: 2, Grids: 4, PerGroup: 4})
		n, _ := backboneFabric(mesh, seed)
		targets := []topo.DeviceID{topo.SSWID(0, 0), topo.SSWID(1, 0)}
		return qualify.Spec{
			Name:           "capacity protection (§4.4.2)",
			Net:            n,
			Intent:         controller.CapacityProtectionIntent(targets, migrate.BackboneCommunity, 75, true, 4),
			OriginAltitude: topo.LayerEB.Altitude(),
			Workload:       traffic.UniformDemands(mesh.ByLayer(topo.LayerFSW), migrate.DefaultRoute, 100),
			Invariants: []qualify.Invariant{
				qualify.NoBlackholes(),
				qualify.NoLoops(),
			},
		}
	}},
}

// qualifyCmd is the paper's §7.1 emulation gate: each suite deploys an RPA
// change onto a reduced-scale network through the real controller path and
// checks invariants during every transient and at steady state. Wire it
// into CI in front of production pushes.
func qualifyCmd(fs *flag.FlagSet) runFunc {
	var (
		name = fs.String("suite", "", "suite `name` to run: equalization (the safe, sequenced rollout) | equalization-topdown (the Figure 10 hazard, fails) | protection (the §4.4.2 decommission guard)")
		all  = allFlag(fs)
		seed = seedFlag(fs)
	)
	return func(_ string, stdout, _ io.Writer) error {
		var names []string
		for _, s := range suites {
			names = append(names, s.name)
		}
		if !*all {
			if err := oneOf("suite", *name, names); err != nil {
				return err
			}
		}
		failed := false
		for _, s := range suites {
			if !*all && s.name != *name {
				continue
			}
			rep, err := qualify.Run(s.build(*seed))
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			fmt.Fprint(stdout, rep.String())
			failed = failed || !rep.Passed
		}
		if failed {
			return errFailed
		}
		return nil
	}
}

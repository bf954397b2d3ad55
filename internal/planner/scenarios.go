package planner

// Named scenario setups: each builds a converged base fabric, captures
// it, and returns the planning parameters for one of the repo's
// migration scenarios. `centralium plan` and the E12 experiment plan the
// same setups, so a CLI run reproduces an experiment's schedule exactly.

import (
	"fmt"

	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// ScenarioNames lists the named setups, in display order.
func ScenarioNames() []string {
	return []string{"fig10", "decommission", "pod-drain"}
}

// ScenarioSetup builds a named scenario's converged base snapshot and
// planning parameters. The seed feeds both the fabric (event jitter) and
// the planner (candidate generation).
func ScenarioSetup(name string, seed int64) (*snapshot.Snapshot, Params, error) {
	switch name {
	case "fig10":
		return fig10Setup(seed)
	case "decommission":
		return rigSetup("decommission", seed)
	case "pod-drain":
		return rigSetup("pod-drain", seed)
	}
	return nil, Params{}, fmt.Errorf("planner: unknown scenario %q (have %v)", name, ScenarioNames())
}

// fig10Setup is the §5.3.2 sequencing scenario: the equalization RPA
// over the FSW/SSW/FA column of Figure 10, watching the FA layer for
// transient funneling. There is no drain body; the schedule itself is
// the whole hazard.
func fig10Setup(seed int64) (*snapshot.Snapshot, Params, error) {
	rig := migrate.Fig10Base(seed)
	snap, err := snapshot.Capture(rig.Net)
	if err != nil {
		return nil, Params{}, fmt.Errorf("planner: fig10 base: %w", err)
	}
	p := Params{
		Seed:           seed,
		Intent:         rig.Intent,
		OriginAltitude: topo.LayerEB.Altitude(),
		Demands:        rig.Demands,
		Watch:          rig.FAs,
	}
	return snap, p, nil
}

// rigSetup plans one of the chaos-rig migrations (decommission,
// pod-drain): the protective RPA's deployment schedule is searched, and
// every terminal candidate replays the rig's drain body to measure the
// transient the protection exists for.
func rigSetup(name string, seed int64) (*snapshot.Snapshot, Params, error) {
	var rig *migrate.ChaosRig
	switch name {
	case "decommission":
		rig = migrate.DecommissionRig(seed)
	case "pod-drain":
		rig = migrate.PodDrainRig(seed)
	}
	snap, err := snapshot.Capture(rig.Net)
	if err != nil {
		return nil, Params{}, fmt.Errorf("planner: %s base: %w", name, err)
	}
	intent, origin, err := migrate.ProtectiveIntent(name)
	if err != nil {
		return nil, Params{}, err
	}
	drains, stagger, err := migrate.DrainSchedule(name)
	if err != nil {
		return nil, Params{}, err
	}
	p := Params{
		Seed:           seed,
		Intent:         intent,
		OriginAltitude: origin,
		Demands:        rig.Demands,
		Watch:          watchFor(rig),
		Drain:          drains,
		DrainStaggerNs: int64(stagger),
	}
	return snap, p, nil
}

// watchFor picks the funneling watch set for a rig: the layer the
// scenario funnels onto (FADUs for the decommission mesh, SSWs for the
// pod drain), falling back to the protected devices.
func watchFor(rig *migrate.ChaosRig) []topo.DeviceID {
	for _, layer := range []topo.Layer{topo.LayerFADU, topo.LayerSSW} {
		var out []topo.DeviceID
		for _, d := range rig.Net.Topo.ByLayer(layer) {
			out = append(out, d.ID)
		}
		if len(out) > 0 {
			return out
		}
	}
	return rig.Protected
}

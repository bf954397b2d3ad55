package migrate

// Chaos rigs: the migration scenarios repackaged so that the chaos harness
// (internal/chaos) can compose them with fault injection. RunScenario1/2/3
// measure a scenario end to end and own their whole lifecycle; a rig
// instead hands the pieces to the caller — the converged network, the
// traffic matrix, the protective RPA rollout as a function of the deploy
// hook (so pushes can be delayed or failed), and the migration schedule —
// and lets the harness interleave faults, monitors, and invariant checks.

import (
	"fmt"
	"net/netip"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

// DeployFunc pushes one RPA config to a device. The chaos injector wraps
// the plain fabric deploy to emulate slow or reordered controller pushes.
type DeployFunc func(dev topo.DeviceID, cfg *core.Config) error

// ChaosRig is one migration scenario packaged for fault injection.
type ChaosRig struct {
	// Name identifies the scenario in logs ("decommission", "pod-drain").
	Name string

	// Net is the built fabric, converged to its pre-migration steady state.
	Net *fabric.Network

	// Demands is the traffic matrix the invariant checkers propagate.
	Demands []traffic.Demand

	// Prefixes are the destinations whose reachability the checkers assert.
	Prefixes []netip.Prefix

	// Sources are the demand-originating devices.
	Sources []topo.DeviceID

	// Protected are the devices carrying the scenario's protective RPA on
	// the RPA arm; the MinNextHop/KeepFibWarm invariant inspects them.
	Protected []topo.DeviceID

	// DeployRPA runs the scenario's protective rollout, routing every
	// config push through the given hook. Only the RPA arm calls it.
	DeployRPA func(push DeployFunc) error

	// Span is the virtual time from the first scheduled migration step to
	// just past the last — the window fault planners aim for.
	Span time.Duration

	// Migration schedules the scenario's drain steps on the virtual clock
	// (relative to now). The caller converges afterwards.
	Migration func()
}

// Decommission-rig geometry: the Figure 4 mesh at the RunScenario2
// defaults, decommissioning number 0.
const (
	decomPlanes       = 2
	decomGrids        = 4
	decomPerGroup     = 4
	decomFSWsPerPlane = 2
	decomNumber       = 0
	decomMinPercent   = 75
)

// ProtectiveIntent returns a named scenario's protective RPA intent and
// the rollout origin altitude — the same intent the rig's DeployRPA
// pushes, exposed separately so the campaign planner can search its
// deployment schedule instead of replaying the fixed rollout.
func ProtectiveIntent(name string) (controller.Intent, int, error) {
	switch name {
	case "decommission":
		in := controller.CapacityProtectionIntent(decomTargets(), BackboneCommunity, decomMinPercent, true, decomGrids)
		return in, topo.LayerEB.Altitude(), nil
	case "pod-drain":
		in := controller.DrainWeightIntent(drainSources(),
			core.Destination{Community: workload.RackCommunity},
			controller.DeviceRegex(drainDoomedFSWs()...))
		return in, topo.LayerRSW.Altitude(), nil
	}
	return nil, 0, fmt.Errorf("migrate: unknown scenario %q", name)
}

// DrainSchedule returns a named scenario's migration body: the devices
// drained, in order, and the stagger between consecutive drains. The
// rigs' Migration closures replay exactly this schedule.
func DrainSchedule(name string) ([]topo.DeviceID, time.Duration, error) {
	switch name {
	case "decommission":
		var out []topo.DeviceID
		for grid := 0; grid < decomGrids; grid++ {
			out = append(out, topo.FADUID(grid, decomNumber))
		}
		for plane := 0; plane < decomPlanes; plane++ {
			out = append(out, topo.SSWID(plane, decomNumber))
		}
		return out, 20 * time.Millisecond, nil
	case "pod-drain":
		var out []topo.DeviceID
		for f := 0; f < drainPlanes-1; f++ {
			out = append(out, topo.FSWID(drainTargetPod, f))
		}
		return out, 25 * time.Millisecond, nil
	}
	return nil, 0, fmt.Errorf("migrate: unknown scenario %q", name)
}

// decomTargets lists the SSWs carrying the decommission protection RPA.
func decomTargets() []topo.DeviceID {
	var targets []topo.DeviceID
	for plane := 0; plane < decomPlanes; plane++ {
		targets = append(targets, topo.SSWID(plane, decomNumber))
	}
	return targets
}

// drainSources lists the source-pod RSWs carrying the pod-drain RPA.
func drainSources() []topo.DeviceID {
	var sources []topo.DeviceID
	for r := 0; r < drainRSWsPerPod; r++ {
		sources = append(sources, topo.RSWID(drainSourcePod, r))
	}
	return sources
}

// drainDoomedFSWs lists the source pod's FSWs on the doomed planes (all
// but the last).
func drainDoomedFSWs() []topo.DeviceID {
	var doomed []topo.DeviceID
	for f := 0; f < drainPlanes-1; f++ {
		doomed = append(doomed, topo.FSWID(drainSourcePod, f))
	}
	return doomed
}

// DecommissionRig builds the Figure 4 last-router scenario as a chaos rig:
// all FADUs of one number drain with stagger, then the matching SSWs. The
// native arm black-holes transiently when the last same-numbered FADU
// drains; the RPA arm (capacity-protection at 75% with a warm FIB) does
// not.
func DecommissionRig(seed int64) *ChaosRig {
	mesh := topo.BuildMesh(topo.MeshParams{
		Planes: decomPlanes, Grids: decomGrids, PerGroup: decomPerGroup, FSWsPerPlane: decomFSWsPerPlane,
	})
	n := fabric.New(mesh, fabric.Options{Seed: seed})
	for i := 0; i < 2; i++ {
		n.OriginateAt(topo.EBID(i), DefaultRoute, []string{BackboneCommunity}, 0)
	}
	n.Converge()
	return decommissionRigOn(n)
}

// decommissionRigOn packages the decommission scenario around a network
// already holding its pre-migration steady state.
func decommissionRigOn(n *fabric.Network) *ChaosRig {
	mesh := n.Topo
	targets := decomTargets()
	var sources []topo.DeviceID
	for _, d := range mesh.ByLayer(topo.LayerFSW) {
		sources = append(sources, d.ID)
	}

	rig := &ChaosRig{
		Name:      "decommission",
		Net:       n,
		Demands:   traffic.UniformDemands(mesh.ByLayer(topo.LayerFSW), DefaultRoute, 100),
		Prefixes:  []netip.Prefix{DefaultRoute},
		Sources:   sources,
		Protected: targets,
	}
	rig.DeployRPA = rigRollout(rig.Name, n)
	drains, stagger, _ := DrainSchedule(rig.Name)
	rig.Span = time.Duration(len(drains)) * stagger
	rig.Migration = rigMigration(n, drains, stagger)
	return rig
}

// rigRollout binds a scenario's protective intent to the rig's
// deploy-hook rollout shape.
func rigRollout(name string, n *fabric.Network) func(push DeployFunc) error {
	return func(push DeployFunc) error {
		intent, origin, err := ProtectiveIntent(name)
		if err != nil {
			return err
		}
		ctl := &controller.Controller{
			Topo:   n.Topo,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return push(d, cfg) },
			Settle: func() { n.Converge() },
		}
		return ctl.Run(controller.Rollout{Intent: intent, OriginAltitude: origin})
	}
}

// rigMigration schedules a drain sequence on the rig's virtual clock.
func rigMigration(n *fabric.Network, drains []topo.DeviceID, stagger time.Duration) func() {
	return func() {
		for i, dev := range drains {
			d := dev
			n.After(time.Duration(i)*stagger, func() {
				n.SetDrained(d, true)
			})
		}
	}
}

// Pod-drain-rig geometry: a two-pod fabric where pod 1's FSWs undergo
// rolling maintenance, one spine plane at a time, keeping the last plane
// live.
const (
	drainPods         = 2
	drainRSWsPerPod   = 3
	drainPlanes       = 3
	drainSSWsPerPlane = 2
	drainSourcePod    = 0
	drainTargetPod    = 1
)

// PodDrainRig builds a rolling-FSW-maintenance scenario on the full fabric
// topology. An SSW on plane f reaches pod P's rack prefixes only through
// FSW(P,f) — a single-candidate transit — so draining that FSW races its
// withdrawal through the SSWs against traffic still arriving from the
// other pod: the native arm black-holes transiently at the plane's SSWs.
// The RPA arm pre-steers source-pod traffic off the doomed planes with
// weight-zero route attributes on the source RSWs, so the drains withdraw
// paths that no longer carry anything.
func PodDrainRig(seed int64) *ChaosRig {
	fab := topo.BuildFabric(topo.FabricParams{
		Pods: drainPods, RSWsPerPod: drainRSWsPerPod,
		FSWsPerPod: drainPlanes, Planes: drainPlanes, SSWsPerPlane: drainSSWsPerPlane,
		Grids: 1, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2,
	})
	n := fabric.New(fab, fabric.Options{Seed: seed})
	origins := workload.SeedRackPrefixes(n)
	n.Converge()
	for r := 0; r < drainRSWsPerPod; r++ {
		p := workload.RackPrefix(drainTargetPod, r)
		if _, ok := origins[p]; !ok {
			panic(fmt.Sprintf("pod-drain rig: missing origin for %v", p))
		}
	}
	return podDrainRigOn(n)
}

// podDrainRigOn packages the pod-drain scenario around a network already
// holding its pre-migration steady state.
func podDrainRigOn(n *fabric.Network) *ChaosRig {
	// Track only the target pod's prefixes, sourced from the other pod.
	var prefixes []netip.Prefix
	var demands []traffic.Demand
	sources := drainSources()
	for r := 0; r < drainRSWsPerPod; r++ {
		p := workload.RackPrefix(drainTargetPod, r)
		prefixes = append(prefixes, p)
		for _, src := range sources {
			demands = append(demands, traffic.Demand{Source: src, Prefix: p, Volume: 100})
		}
	}

	rig := &ChaosRig{
		Name:      "pod-drain",
		Net:       n,
		Demands:   demands,
		Prefixes:  prefixes,
		Sources:   sources,
		Protected: sources, // the RPA arm's route-attribute configs live on the source RSWs
	}

	// The RPA weights zero toward the source pod's own FSWs on the doomed
	// planes: traffic leaves the RSW only via the surviving plane, so the
	// target pod's drains withdraw idle paths.
	rig.DeployRPA = rigRollout(rig.Name, n)
	drains, stagger, _ := DrainSchedule(rig.Name)
	rig.Span = time.Duration(len(drains)) * stagger
	rig.Migration = rigMigration(n, drains, stagger)
	return rig
}

// RigOn rebuilds a scenario rig around an existing network — typically one
// restored from a chaos checkpoint — instead of building and converging a
// fresh fabric. The network must hold the scenario's pre-migration steady
// state (geometry, originations, convergence), which is exactly what a
// chaos checkpoint contains; the rig's schedules and rollouts then close
// over the given network.
func RigOn(name string, n *fabric.Network) (*ChaosRig, error) {
	switch name {
	case "decommission":
		return decommissionRigOn(n), nil
	case "pod-drain":
		return podDrainRigOn(n), nil
	}
	return nil, fmt.Errorf("migrate: unknown rig %q", name)
}

// Fig10Rig is the §5.3.2 deployment-sequencing scenario before any RPA is
// deployed: the Figure 10 FSW/SSW/FA column converged on the backbone
// default route, the equalization intent whose rollout order is the whole
// hazard, and what to watch while it rolls out. The planner's fig10 setup,
// the Figure 10 experiment and the equalization qualification suites all
// start from this one base.
type Fig10Rig struct {
	Net     *fabric.Network
	Intent  controller.Intent // path equalization over FSW, SSW and FA
	Demands []traffic.Demand  // northbound, uniform from every FSW
	FAs     []topo.DeviceID   // the layer a wrong order funnels onto
}

// Fig10Base builds and converges the Figure 10 base.
func Fig10Base(seed int64) Fig10Rig {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	n := fabric.New(tp, fabric.Options{Seed: seed})
	n.OriginateAt(topo.EBID(0), DefaultRoute, []string{BackboneCommunity}, 0)
	n.Converge()
	return Fig10Rig{
		Net: n,
		Intent: controller.PathEqualizationIntent(tp,
			[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}, BackboneCommunity),
		Demands: traffic.UniformDemands(tp.ByLayer(topo.LayerFSW), DefaultRoute, 100),
		FAs:     []topo.DeviceID{topo.FAID(0), topo.FAID(1)},
	}
}

// Fig9Prefix is the destination D of Figure 9.
var Fig9Prefix = netip.MustParsePrefix("198.51.100.0/24")

// Fig9Net builds the §5.3.1 loop scenario, converged: the six routers of
// Figure 9 with r0 originating D behind R1, R[1-5] on native multipath,
// and R6 RPA-selecting the paths via R2 and R5 while advertising under the
// given rule. The loop experiment and `centralium rpa -scenario fig9`
// inspect the same network.
func Fig9Net(seed int64, r6 bgp.AdvertiseMode) *fabric.Network {
	tp := topo.BuildFig9(100)
	tp.AddDevice(topo.Device{ID: "r0", Layer: topo.LayerGeneric, Pod: -1, Plane: -1, Grid: -1})
	tp.AddLink("r0", topo.GenericID(1), 100)
	n := fabric.New(tp, fabric.Options{Seed: seed, SpeakerConfig: func(d *topo.Device) bgp.Config {
		cfg := bgp.Config{Multipath: true}
		if d.ID == topo.GenericID(6) {
			cfg.Advertise = r6
		}
		return cfg
	}})
	// R1 prepends toward R5 (a routing-policy artifact) so that R5's own
	// path and the one R6 may advertise tie on AS-path length — the
	// equal-length multipath condition of the figure.
	n.SetPrependToward(topo.GenericID(1), topo.GenericID(5), 2)
	n.OriginateAt("r0", Fig9Prefix, []string{"D"}, 0)
	n.Converge()

	rpa := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "balance-r2-r5",
		Destination: core.Destination{Community: "D"},
		PathSets: []core.PathSet{{
			Name:      "via-r2-r5",
			Signature: core.PathSignature{PeerRegex: controller.DeviceRegex(topo.GenericID(2), topo.GenericID(5))},
		}},
	}}}
	if err := n.DeployRPA(topo.GenericID(6), rpa); err != nil {
		panic("fig9: " + err.Error())
	}
	n.Converge()
	return n
}

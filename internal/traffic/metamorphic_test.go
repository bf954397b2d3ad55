package traffic_test

import (
	"fmt"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// fabricParams is the benchmark's medium fabric (116 devices at 8 pods).
func fabricParams(pods int) topo.FabricParams {
	return topo.FabricParams{
		Pods: pods, RSWsPerPod: 6, FSWsPerPod: 4, Planes: 4,
		SSWsPerPlane: 4, Grids: 2, FADUsPerGrid: 4, FAUUsPerGrid: 4, EBs: 4,
	}
}

// converged builds the fabric over tp with every EB originating the default
// route, in the EBs' order under the original names (ebs).
func converged(tp *topo.Topology, ebs []topo.DeviceID) *fabric.Network {
	n := fabric.New(tp, fabric.Options{Seed: 1})
	for _, eb := range ebs {
		n.OriginateAt(eb, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	n.Converge()
	return n
}

// renamed copies tp under new names that sort in the reverse order of the
// old ones. Every device keeps its ASN and attributes, every link its place
// and capacity, so each session keeps its index.
func renamed(tp *topo.Topology) (*topo.Topology, map[topo.DeviceID]topo.DeviceID) {
	devs := tp.Devices()
	name := make(map[topo.DeviceID]topo.DeviceID, len(devs))
	out := topo.New()
	for i, d := range devs {
		name[d.ID] = topo.DeviceID(fmt.Sprintf("dev%04d", len(devs)-1-i))
		c := *d
		c.ID = name[d.ID]
		out.AddDevice(c)
	}
	for _, l := range tp.Links() {
		out.AddLink(name[l.A], name[l.B], l.CapacityGbps)
	}
	return out, name
}

// TestPropagatorRenameInvariant: renaming the devices so that their sorted
// order reverses — the order the propagator visits them in — permutes the
// result and changes nothing else. Every device's load, Delivered and
// Blackholed must come out equal, with no tolerance.
func TestPropagatorRenameInvariant(t *testing.T) {
	for _, pods := range []int{2, 4, 8} {
		tp := topo.BuildFabric(fabricParams(pods))
		rtp, name := renamed(tp)
		var ebs, rebs []topo.DeviceID
		for _, eb := range tp.ByLayer(topo.LayerEB) {
			ebs = append(ebs, eb.ID)
			rebs = append(rebs, name[eb.ID])
		}
		demands := traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100)
		rdemands := make([]traffic.Demand, len(demands))
		for i, d := range demands {
			rdemands[i] = d
			rdemands[i].Source = name[d.Source]
		}
		got := (&traffic.Propagator{Net: converged(tp, ebs)}).Run(demands)
		rgot := (&traffic.Propagator{Net: converged(rtp, rebs)}).Run(rdemands)
		if got.Delivered != rgot.Delivered || got.Blackholed != rgot.Blackholed {
			t.Errorf("%d pods: delivered/blackholed %v/%v, renamed %v/%v", pods, got.Delivered, got.Blackholed, rgot.Delivered, rgot.Blackholed)
		}
		if got.Delivered == 0 {
			t.Errorf("%d pods: nothing delivered", pods)
		}
		for _, d := range tp.Devices() {
			if a, b := got.Load(d.ID), rgot.Load(name[d.ID]); a != b {
				t.Errorf("%d pods: Load(%s) = %v, renamed %s carries %v", pods, d.ID, a, name[d.ID], b)
			}
		}
	}
}

// runAllocCeiling bounds what one warm Run allocates: the Result and its two
// load slices, whatever the fabric size or demand count.
const runAllocCeiling = 16

// TestPropagatorRunAllocs holds a warm Run under runAllocCeiling on every
// planner scenario base and on the 116-device fabric.
func TestPropagatorRunAllocs(t *testing.T) {
	type rig struct {
		name    string
		net     *fabric.Network
		demands []traffic.Demand
	}
	var rigs []rig
	for _, scenario := range planner.ScenarioNames() {
		snap, p, err := planner.ScenarioSetup(scenario, 1)
		if err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, rig{scenario, restoreFork(t, snap), p.Demands})
	}
	tp := topo.BuildFabric(fabricParams(8))
	var ebs []topo.DeviceID
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		ebs = append(ebs, eb.ID)
	}
	rigs = append(rigs, rig{"medium", converged(tp, ebs), traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100)})
	for _, r := range rigs {
		pr := &traffic.Propagator{Net: r.net}
		pr.Run(r.demands)
		allocs := testing.AllocsPerRun(20, func() { pr.Run(r.demands) })
		t.Logf("%s: %d devices, %d demands, %.0f allocations per warm Run", r.name, r.net.Topo.NumDevices(), len(r.demands), allocs)
		if allocs > runAllocCeiling {
			t.Errorf("%s: a warm Run allocates %.0f times, ceiling %d", r.name, allocs, runAllocCeiling)
		}
	}
}

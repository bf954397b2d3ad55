// Package integration holds cross-module, larger-scale tests: the full
// controller stack driving an emulated fabric with production-style
// workloads. These are the closest analog to the paper's reduced-scale
// emulation test suite (Section 7.1).
package integration

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"centralium/internal/agent"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/nsdb"
	"centralium/internal/openr"
	"centralium/internal/topo"
	"centralium/internal/traffic"
	"centralium/internal/workload"
)

func TestMidScaleFabricWithProductionWorkload(t *testing.T) {
	params := topo.FabricParams{
		Pods: 4, RSWsPerPod: 6, FSWsPerPod: 4, Planes: 4,
		SSWsPerPlane: 4, Grids: 2, FADUsPerGrid: 4, FAUUsPerGrid: 4, EBs: 4,
	}
	tp := topo.BuildFabric(params)
	n := fabric.New(tp, fabric.Options{Seed: 77})
	start := time.Now()
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	prefixes := workload.SeedRackPrefixes(n)
	events := n.Converge()
	t.Logf("fabric: %d devices, %d links, %d prefixes, %d events, wall %v, virtual %v",
		tp.NumDevices(), tp.NumLinks(), len(prefixes)+1, events,
		time.Since(start).Round(time.Millisecond), time.Duration(n.Now()).Round(time.Millisecond))

	// Any-to-any east-west traffic delivers in full.
	rep := workload.CheckAnyToAny(n, workload.EastWestDemands(n, prefixes, 1, 5, 9))
	if rep.Delivered < 0.999 || rep.Blackholed > 0 || rep.Looped > 1e-9 {
		t.Fatalf("east-west loss: %+v", rep)
	}
	// Northbound default-route traffic delivers in full.
	pr := &traffic.Propagator{Net: n}
	res := pr.Run(traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 10))
	if res.DeliveredFraction() < 0.999 {
		t.Fatalf("northbound delivery = %v", res.DeliveredFraction())
	}
	// FIB sanity: every RSW carries all rack prefixes plus the default.
	rsw0 := tp.ByLayer(topo.LayerRSW)[0]
	if got := n.Speaker(rsw0.ID).FIB().Stats().Entries; got != len(prefixes)+1 {
		t.Fatalf("RSW FIB entries = %d, want %d", got, len(prefixes)+1)
	}
}

func TestFullStackRolloutWithWatchAgents(t *testing.T) {
	// The complete loop: controller -> NSDB intent -> watch-mode agents ->
	// RPC -> switches, with the §5.1 slow-roll gate armed and the §5.2
	// management pre-check in place.
	tp := topo.BuildFabric(topo.FabricParams{Pods: 2})
	n := fabric.New(tp, fabric.Options{Seed: 13})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	n.Converge()
	mgmt := openr.New(tp)
	db := nsdb.NewCluster(2)
	h := &agent.FabricHandler{Net: n}

	// Two watch-mode agents shard the fleet.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents []*agent.Agent
	for i := 0; i < 2; i++ {
		cli, srv := net.Pipe()
		go (&agent.Server{H: h}).Serve(srv)
		a := &agent.Agent{Name: "sa", DB: db, Client: agent.NewClient(cli)}
		agents = append(agents, a)
		defer a.Client.Close()
	}
	devs := tp.Devices()
	for i, d := range devs {
		if d.Layer == topo.LayerEB {
			continue
		}
		agents[i%2].Devices = append(agents[i%2].Devices, string(d.ID))
	}
	for _, a := range agents {
		go a.Watch(ctx, func(err error) { t.Errorf("agent error: %v", err) })
	}

	intent := controller.PathEqualizationIntent(tp,
		[]topo.Layer{topo.LayerFSW, topo.LayerSSW}, migrate.BackboneCommunity)
	ctl := &controller.Controller{
		Topo:                  tp,
		DB:                    db,
		BackendUpdatesCurrent: true,
		// Deploy publishes intent; the watch agents react. Wait for the
		// device to converge in NSDB before moving on (the production
		// controller gates the same way).
		Deploy: func(dev topo.DeviceID, cfg *core.Config) error {
			agent.SetIntendedRPA(db, string(dev), cfg)
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if cur, ok := agent.CurrentRPA(db, string(dev)); ok && cur.Version == cfg.Version {
					return nil
				}
				time.Sleep(time.Millisecond)
			}
			return context.DeadlineExceeded
		},
		Settle: func() { h.Lock(); n.Converge(); h.Unlock() },
	}
	err := ctl.Run(controller.Rollout{
		Intent:               intent,
		OriginAltitude:       topo.LayerEB.Altitude(),
		MaxStragglerFraction: 0.1,
		Pre: []controller.HealthCheck{
			controller.MgmtReachabilityCheck(mgmt, topo.RSWID(0, 0), intent.Devices()),
		},
	})
	if err != nil {
		t.Fatalf("rollout: %v", err)
	}
	// Every SSW now equalizes across its FADUs regardless of path length.
	h.Lock()
	defer h.Unlock()
	for _, ssw := range tp.ByLayer(topo.LayerSSW) {
		if n.Speaker(ssw.ID).Stats().RPASelections == 0 {
			t.Errorf("%s never used its RPA", ssw.ID)
		}
	}
	if s := ctl.Stragglers(); len(s) != 0 {
		t.Errorf("stragglers: %v", s)
	}
}

func TestScenariosAtLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large scenario sweep in -short mode")
	}
	// Scenario 1 at 8x8x8 with 8 new nodes.
	s1 := migrate.RunScenario1(migrate.Scenario1Params{
		Seed: 2, SSWs: 8, FAv1s: 8, Edges: 8, FAv2s: 8,
	})
	if s1.PeakShare < 0.95 {
		t.Errorf("scenario1 native peak = %v at scale", s1.PeakShare)
	}
	s1r := migrate.RunScenario1(migrate.Scenario1Params{
		Seed: 2, SSWs: 8, FAv1s: 8, Edges: 8, FAv2s: 8, UseRPA: true,
	})
	if s1r.PeakShare > 3*s1r.FairShare {
		t.Errorf("scenario1 RPA peak = %v (fair %v) at scale", s1r.PeakShare, s1r.FairShare)
	}
	// Scenario 2 at 4 planes x 8 grids.
	s2 := migrate.RunScenario2(migrate.Scenario2Params{
		Seed: 2, Planes: 4, Grids: 8, PerGroup: 4,
	})
	if s2.PeakFADUShare < 3*s2.FairShare {
		t.Errorf("scenario2 native funnel = %v (fair %v) at scale", s2.PeakFADUShare, s2.FairShare)
	}
}

func TestBoundaryFilterProtectsForwardingResources(t *testing.T) {
	// Section 4.3: "incorrectly accepting too many specific prefixes can
	// overload the compute and forwarding resources in switches". A
	// backbone device leaks hundreds of specifics alongside the default
	// route; the Route Filter RPA at the DC boundary keeps them out of the
	// fabric's RIBs and FIBs.
	build := func(filtered bool) *fabric.Network {
		tp := topo.New()
		tp.AddDevice(topo.Device{ID: topo.EBID(0), Layer: topo.LayerEB})
		tp.AddDevice(topo.Device{ID: topo.FAUUID(0, 0), Layer: topo.LayerFAUU, Grid: 0})
		tp.AddDevice(topo.Device{ID: topo.FADUID(0, 0), Layer: topo.LayerFADU, Grid: 0})
		tp.AddLink(topo.EBID(0), topo.FAUUID(0, 0), 400)
		tp.AddLink(topo.FAUUID(0, 0), topo.FADUID(0, 0), 400)
		n := fabric.New(tp, fabric.Options{Seed: 8})
		if filtered {
			intent := controller.BoundaryFilterIntent(
				[]topo.DeviceID{topo.FAUUID(0, 0)}, "^eb\\.",
				[]core.PrefixRule{{Prefix: "0.0.0.0/0"}}) // default route only
			for dev, cfg := range intent {
				if err := n.DeployRPA(dev, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.OriginateAt(topo.EBID(0), migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
		// The leak: hundreds of more-specific prefixes.
		for i := 0; i < 300; i++ {
			p := netip.MustParsePrefix(fmt.Sprintf("100.64.%d.0/24", i%256))
			if i >= 256 {
				p = netip.MustParsePrefix(fmt.Sprintf("100.65.%d.0/24", i%256))
			}
			n.OriginateAt(topo.EBID(0), p, []string{"LEAKED"}, 0)
		}
		n.Converge()
		return n
	}

	unprotected := build(false)
	if got := unprotected.Speaker(topo.FAUUID(0, 0)).FIB().Stats().Entries; got != 301 {
		t.Fatalf("unprotected FAUU FIB = %d entries, want 301", got)
	}
	protected := build(true)
	if got := protected.Speaker(topo.FAUUID(0, 0)).FIB().Stats().Entries; got != 1 {
		t.Fatalf("protected FAUU FIB = %d entries, want 1 (default only)", got)
	}
	// The filter also stops downstream propagation entirely.
	if got := protected.Speaker(topo.FADUID(0, 0)).FIB().Stats().Entries; got != 1 {
		t.Fatalf("FADU FIB = %d entries behind the filter, want 1", got)
	}
	// Default-route reachability is intact.
	if protected.Speaker(topo.FADUID(0, 0)).FIB().Lookup(migrate.DefaultRoute) == nil {
		t.Fatal("default route lost behind filter")
	}
}

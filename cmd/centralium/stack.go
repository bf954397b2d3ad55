package main

import (
	"flag"
	"fmt"
	"io"
	"net"

	"centralium/internal/agent"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/migrate"
	"centralium/internal/nsdb"
	"centralium/internal/te"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// stackCmd runs the controller workflow of the paper's Section 5 end to
// end and reports fleet consistency.
func stackCmd(fs *flag.FlagSet) runFunc {
	var (
		app      = fs.String("app", "equalize", "application to run: equalize | protect | te | filter")
		pods     = podsFlag(fs)
		seed     = seedFlag(fs)
		agents   = fs.Int("agents", 4, "switch agent tasks")
		replicas = fs.Int("replicas", 2, "NSDB replicas")
		minNH    = fs.Float64("min-next-hop", 75, "MinNextHop percent for -app protect")
	)
	return func(_ string, stdout, _ io.Writer) error {
		return runStack(stdout, *app, *pods, *seed, *agents, *replicas, *minNH)
	}
}

func runStack(w io.Writer, app string, pods int, seed int64, agentCount, replicas int, minNH float64) error {
	// --- substrate: emulated fabric with backbone default routes ---------
	tp := topo.BuildFabric(topo.FabricParams{Pods: pods})
	intent, err := buildIntent(app, tp, minNH) // first: an unknown -app builds nothing
	if err != nil {
		return err
	}
	n, _ := backboneFabric(tp, seed)
	fmt.Fprintf(w, "fabric: %d devices, %d links, converged\n", tp.NumDevices(), tp.NumLinks())

	// --- storage layer: replicated NSDB ----------------------------------
	db := nsdb.NewCluster(replicas)
	fmt.Fprintf(w, "nsdb: %d replicas, leader nsdb-%d\n", replicas, db.Leader().ID)

	// --- I/O layer: sharded switch agents over RPC ------------------------
	h := &agent.FabricHandler{Net: n, ConvergeOnDeploy: false}
	var sas []*agent.Agent
	for i := 0; i < agentCount; i++ {
		cli, srv := net.Pipe()
		go (&agent.Server{H: h}).Serve(srv)
		sas = append(sas, &agent.Agent{
			Name:   fmt.Sprintf("switch-agent-%d", i),
			DB:     db,
			Client: agent.NewClient(cli),
		})
		defer sas[i].Client.Close()
	}
	i := 0
	for _, d := range tp.Devices() {
		if d.Layer == topo.LayerEB {
			continue
		}
		sa := sas[i%len(sas)]
		sa.Devices = append(sa.Devices, string(d.ID))
		i++
	}
	fmt.Fprintf(w, "agents: %d tasks sharding %d switches\n", len(sas), i)

	// --- application layer -------------------------------------------------
	fmt.Fprintf(w, "app %q: generated RPAs for %d switches (%d LOC total)\n",
		app, len(intent), intent.TotalLOC())

	// Deployment goes controller -> NSDB intent -> agents -> switches, with
	// layer-ordered waves and converge-settling between them.
	ctl := &controller.Controller{
		Topo: tp,
		DB:   db,
		Deploy: func(dev topo.DeviceID, cfg *core.Config) error {
			agent.SetIntendedRPA(db, string(dev), cfg)
			for _, sa := range sas {
				if _, err := sa.ReconcileOnce(); err != nil {
					return err
				}
			}
			return nil
		},
		Settle: func() {
			h.Lock()
			n.Converge()
			h.Unlock()
		},
	}

	pr := &traffic.Propagator{Net: n}
	demands := traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100)
	pre := controller.HealthCheck{Name: "congestion-free", Check: func() error {
		h.Lock()
		defer h.Unlock()
		if u := pr.Run(demands).MaxUtilization(tp); u > 1 {
			return fmt.Errorf("max link utilization %.2f", u)
		}
		return nil
	}}
	post := controller.HealthCheck{Name: "no-blackholes", Check: func() error {
		h.Lock()
		defer h.Unlock()
		if bh := pr.Run(demands).BlackholedFraction(); bh > 0 {
			return fmt.Errorf("%.1f%% of traffic black-holed", bh*100)
		}
		return nil
	}}

	err = ctl.Run(controller.Rollout{
		Intent:         intent,
		OriginAltitude: topo.LayerEB.Altitude(),
		Pre:            []controller.HealthCheck{pre},
		Post:           []controller.HealthCheck{post},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rollout: %d deployments, 0 stragglers, health checks passed\n", ctl.Deployments())

	// Final fleet state.
	h.Lock()
	res := pr.Run(demands)
	h.Unlock()
	fmt.Fprintf(w, "traffic: delivered %.1f%%, max link utilization %.3f\n",
		res.DeliveredFraction()*100, res.MaxUtilization(tp))
	return nil
}

func buildIntent(app string, tp *topo.Topology, minNH float64) (controller.Intent, error) {
	switch app {
	case "equalize":
		return controller.PathEqualizationIntent(tp,
			[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFADU}, migrate.BackboneCommunity), nil
	case "protect":
		var ssws []topo.DeviceID
		for _, d := range tp.ByLayer(topo.LayerSSW) {
			ssws = append(ssws, d.ID)
		}
		return controller.CapacityProtectionIntent(ssws, migrate.BackboneCommunity, minNH, true, 0), nil
	case "te":
		perDevice := make(map[topo.DeviceID][]te.Path)
		for _, d := range tp.ByLayer(topo.LayerFAUU) {
			var paths []te.Path
			for _, nb := range tp.Neighbors(d.ID) {
				if tp.Device(nb).Layer == topo.LayerEB {
					paths = append(paths, te.Path{ID: string(nb), CapacityGbps: 400})
				}
			}
			perDevice[d.ID] = paths
		}
		return controller.TrafficEngineeringIntent(
			core.Destination{Community: migrate.BackboneCommunity}, perDevice, 0), nil
	case "filter":
		var fauus []topo.DeviceID
		for _, d := range tp.ByLayer(topo.LayerFAUU) {
			fauus = append(fauus, d.ID)
		}
		return controller.BoundaryFilterIntent(fauus, "^eb\\.",
			[]core.PrefixRule{{Prefix: "0.0.0.0/0"}}), nil
	default:
		return nil, usagef("-app %q: want equalize | protect | te | filter", app)
	}
}

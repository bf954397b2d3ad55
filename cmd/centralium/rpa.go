package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/rpadebug"
	"centralium/internal/topo"
)

// rpaCmd is the operator debugging tool of the paper's Section 7.2: it
// shows all active RPAs on a switch and explains, for a given route, which
// RPA statement and path set govern it and why. Because the fleet is
// emulated, it first stands up a named scenario, then inspects it.
func rpaCmd(fs *flag.FlagSet) runFunc {
	var (
		scenario = scenarioFlag(fs)
		device   = fs.String("device", "", "device to inspect (default: a scenario-appropriate one)")
		prefix   = fs.String("prefix", "0.0.0.0/0", "prefix for rpa explain")
		seed     = seedFlag(fs)
	)
	return func(mode string, stdout, _ io.Writer) error {
		if err := oneOf("scenario", *scenario, []string{"expansion", "mesh", "fig9"}); err != nil {
			return err
		}
		n, dev, err := rpaScenario(*scenario, *seed)
		if err != nil {
			return err
		}
		if *device != "" {
			dev = topo.DeviceID(*device)
		}
		switch mode {
		case "show":
			fmt.Fprint(stdout, rpadebug.ListRPAs(n, dev))
		case "explain":
			p, err := netip.ParsePrefix(*prefix)
			if err != nil {
				return usagef("-prefix: %v", err)
			}
			fmt.Fprint(stdout, rpadebug.ExplainRoute(n, dev, p))
		case "fib":
			fmt.Fprint(stdout, rpadebug.DumpFIB(n, dev))
		}
		return nil
	}
}

// rpaScenario stands up a converged, RPA-equipped network for inspection
// and names the device to look at by default.
func rpaScenario(name string, seed int64) (*fabric.Network, topo.DeviceID, error) {
	deploy := func(n *fabric.Network, intent controller.Intent) error {
		for _, dev := range intent.Devices() {
			if err := n.DeployRPA(dev, intent[dev]); err != nil {
				return err
			}
		}
		n.Converge()
		return nil
	}
	switch name {
	case "expansion":
		exp := topo.BuildExpansion(topo.ExpansionParams{})
		for i := 0; i < exp.Params.FAv2s; i++ {
			exp.ActivateFAv2(i)
		}
		n, _ := backboneFabric(exp.Topology, seed)
		intent := controller.PathEqualizationIntent(exp.Topology, []topo.Layer{topo.LayerSSW}, migrate.BackboneCommunity)
		return n, topo.SSWID(0, 0), deploy(n, intent)

	case "mesh":
		n, _ := backboneFabric(topo.BuildMesh(topo.MeshParams{}), seed)
		targets := []topo.DeviceID{topo.SSWID(0, 0), topo.SSWID(1, 0)}
		intent := controller.CapacityProtectionIntent(targets, migrate.BackboneCommunity, 75, true, 2)
		return n, topo.SSWID(0, 0), deploy(n, intent)

	default: // fig9
		return migrate.Fig9Net(seed, bgp.AdvertiseLeastFavorable), topo.GenericID(6), nil
	}
}

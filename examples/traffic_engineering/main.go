// Traffic engineering (§6.4 / Figure 13): when maintenance breaks the
// symmetry of the DCN-backbone parallel paths, ECMP is limited by the
// weakest member while Centralium's TE prescribes capacity-proportional
// WCMP weights through a Route Attribute RPA, recovering nearly the ideal
// effective capacity. This example computes the weights, deploys them as an
// RPA on an emulated FAUU, and verifies the data plane follows them.
package main

import (
	"fmt"
	"net/netip"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/te"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

func main() {
	// One FAUU with four backbone uplinks; maintenance halves eb.3.
	paths := []te.Path{
		{ID: "eb.0", CapacityGbps: 400},
		{ID: "eb.1", CapacityGbps: 400},
		{ID: "eb.2", CapacityGbps: 400},
		{ID: "eb.3", CapacityGbps: 200}, // degraded by maintenance
	}
	fmt.Println("paths:", paths)
	fmt.Printf("effective capacity  ECMP: %.0fG   TE: %.0fG   ideal: %.0fG\n\n",
		te.EffectiveCapacity(paths, te.ECMPWeights(paths)),
		te.EffectiveCapacity(paths, te.Weights(paths, 0)),
		te.EffectiveCapacityFractions(paths, te.IdealFractions(paths)))

	// Build the emulated subgraph and deploy the TE weights as an RPA.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "fauu", Layer: topo.LayerFAUU})
	for i := 0; i < 4; i++ {
		tp.AddDevice(topo.Device{ID: topo.EBID(i), Layer: topo.LayerEB, Index: i})
		tp.AddLink("fauu", topo.EBID(i), paths[i].CapacityGbps)
	}
	n := fabric.New(tp, fabric.Options{Seed: 7})
	dst := netip.MustParsePrefix("0.0.0.0/0")
	for i := 0; i < 4; i++ {
		n.OriginateAt(topo.EBID(i), dst, []string{"BACKBONE_DEFAULT_ROUTE"}, 0)
	}
	n.Converge()

	weights := te.Weights(paths, 0)
	st := te.BuildRouteAttributeRPA("te-weights",
		core.Destination{Community: "BACKBONE_DEFAULT_ROUTE"}, paths, weights, 0)
	cfg := &core.Config{RouteAttribute: []core.RouteAttributeStatement{st}}
	fmt.Printf("deploying Route Attribute RPA (%d lines):\n", cfg.LOC())
	if err := n.DeployRPA("fauu", cfg); err != nil {
		panic(err)
	}
	n.Converge()

	// Verify the data plane: propagate 700G northbound and inspect loads.
	pr := &traffic.Propagator{Net: n}
	res := pr.Run([]traffic.Demand{{Source: "fauu", Prefix: dst, Volume: 700}})
	fmt.Println("\nper-uplink load at 700G demand:")
	for i := 0; i < 4; i++ {
		eb := topo.EBID(i)
		load := res.Load(eb)
		fmt.Printf("  %s  %5.1fG / %3.0fG  (util %.2f)\n",
			eb, load, paths[i].CapacityGbps, load/paths[i].CapacityGbps)
	}
	fmt.Printf("max utilization: %.3f (ECMP at the same demand would hit %.3f on eb.3)\n",
		res.MaxUtilization(tp), 700.0/4/200)
}

package experiments

import (
	"fmt"
	"net/netip"
	"strings"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/probe"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

func init() {
	register("fig2", "Figure 2 / §3.2: First-router funneling during topology expansion", func(seed int64) (string, error) {
		return Fig2(seed), nil
	})
	register("fig4", "Figure 4 / §3.3: Last-router funneling during decommission", func(seed int64) (string, error) {
		return Fig4(seed), nil
	})
	register("fig5", "Figure 5 / §3.4: Transient next-hop-group explosion during WCMP convergence", func(seed int64) (string, error) {
		return Fig5(seed), nil
	})
	register("fig9", "Figure 9 / §5.3.1: Advertisement rule vs routing loops", func(seed int64) (string, error) {
		return Fig9(seed), nil
	})
	register("fig10", "Figure 10 / §5.3.2: RPA deployment sequencing vs transient funneling", func(seed int64) (string, error) {
		return Fig10(seed), nil
	})
	register("fig14", "Figure 14 / §7.2: KeepFibWarm misconfiguration SEV", func(seed int64) (string, error) {
		return Fig14(seed), nil
	})
	registerRows("fig2", Fig2Rows)
	registerRows("fig4", Fig4Rows)
	registerRows("fig5", Fig5Rows)
}

// Fig2 runs the scenario 1 comparison: native BGP vs the equalization RPA.
func Fig2(seed int64) string {
	native, rpa := fig2Results(seed)
	var b strings.Builder
	fmt.Fprintf(&b, "4 SSW + 4 FAv1 + 4 Edge, 4 FAv2 activated incrementally; share of\n")
	fmt.Fprintf(&b, "northbound traffic on the hottest aggregation device (fair share %.3f):\n\n", native.FairShare)
	fmt.Fprintf(&b, "%-24s %12s %12s %10s\n", "mode", "peak share", "final share", "events")
	fmt.Fprintf(&b, "%-24s %12.3f %12.3f %10d\n", "native BGP", native.PeakShare, native.FinalShare, native.Events)
	fmt.Fprintf(&b, "%-24s %12.3f %12.3f %10d\n", "PathSelection RPA", rpa.PeakShare, rpa.FinalShare, rpa.Events)
	fmt.Fprintf(&b, "\nfunneling reduction: %.1fx\n", native.PeakShare/rpa.PeakShare)
	return b.String()
}

func fig2Results(seed int64) (native, rpa migrate.Scenario1Result) {
	native = migrate.RunScenario1(migrate.Scenario1Params{Seed: seed})
	rpa = migrate.RunScenario1(migrate.Scenario1Params{Seed: seed, UseRPA: true})
	return native, rpa
}

// Fig2Rows is the machine-readable form of Fig2.
func Fig2Rows(seed int64) []Row {
	native, rpa := fig2Results(seed)
	row := func(label string, r migrate.Scenario1Result) Row {
		return Row{Label: label, Values: map[string]float64{
			"fair_share":  r.FairShare,
			"peak_share":  r.PeakShare,
			"final_share": r.FinalShare,
			"events":      float64(r.Events),
		}}
	}
	return []Row{row("native", native), row("pathselection-rpa", rpa)}
}

// Fig4 runs the scenario 2 comparison: native, vendor-knob-free BGP vs the
// MinNextHop protection RPA.
func Fig4(seed int64) string {
	native, vendor, rpa := fig4Results(seed)
	var b strings.Builder
	fmt.Fprintf(&b, "2 planes x 4 grids x 4 SSW/FADU per group; decommission number 0;\n")
	fmt.Fprintf(&b, "share of northbound traffic on the hottest FADU (fair share %.3f):\n\n", native.FairShare)
	fmt.Fprintf(&b, "%-30s %11s %14s %10s\n", "mode", "peak share", "peak blackhole", "events")
	fmt.Fprintf(&b, "%-30s %11.3f %14.3f %10d\n", "native BGP", native.PeakFADUShare, native.PeakBlackholed, native.Events)
	fmt.Fprintf(&b, "%-30s %11.3f %14.3f %10d\n", "vendor min-ECMP knob (§3.3)", vendor.PeakFADUShare, vendor.PeakBlackholed, vendor.Events)
	fmt.Fprintf(&b, "%-30s %11.3f %14.3f %10d\n", "MinNextHop RPA (FIB warm)", rpa.PeakFADUShare, rpa.PeakBlackholed, rpa.Events)
	fmt.Fprintf(&b, "\nfunneling reduction vs native: %.1fx; the vendor knob matches the RPA's\n", native.PeakFADUShare/rpa.PeakFADUShare)
	fmt.Fprintf(&b, "funnel protection but costs extra config pushes (Table 3) and cannot keep\nthe FIB warm.\n")
	return b.String()
}

func fig4Results(seed int64) (native, vendor, rpa migrate.Scenario2Result) {
	native = migrate.RunScenario2(migrate.Scenario2Params{Seed: seed})
	vendor = migrate.RunScenario2(migrate.Scenario2Params{Seed: seed, UseVendorKnob: true})
	rpa = migrate.RunScenario2(migrate.Scenario2Params{Seed: seed, UseRPA: true, KeepFibWarm: true})
	return native, vendor, rpa
}

// Fig4Rows is the machine-readable form of Fig4.
func Fig4Rows(seed int64) []Row {
	native, vendor, rpa := fig4Results(seed)
	row := func(label string, r migrate.Scenario2Result) Row {
		return Row{Label: label, Values: map[string]float64{
			"fair_share":      r.FairShare,
			"peak_fadu_share": r.PeakFADUShare,
			"peak_blackholed": r.PeakBlackholed,
			"events":          float64(r.Events),
		}}
	}
	return []Row{row("native", native), row("vendor-knob", vendor), row("minnexthop-rpa", rpa)}
}

// Fig5 runs the scenario 3 comparison: distributed WCMP vs a-priori Route
// Attribute weights.
func Fig5(seed int64) string {
	native, rpa := fig5Results(seed)
	var b strings.Builder
	fmt.Fprintf(&b, "8 EB x 4 UU x 1 DU, 2 sessions per UU-DU pair, %d prefixes, 2 EBs enter\n", 256)
	fmt.Fprintf(&b, "maintenance; next-hop-group pressure on the DU (hardware limit 128):\n\n")
	fmt.Fprintf(&b, "%-26s %9s %10s %10s %10s\n", "mode", "peak NHG", "steady NHG", "overflows", "churn")
	fmt.Fprintf(&b, "%-26s %9d %10d %10d %10d\n", "distributed WCMP", native.PeakNHG, native.SteadyNHG, native.Overflows, native.GroupChurn)
	fmt.Fprintf(&b, "%-26s %9d %10d %10d %10d\n", "RouteAttribute RPA", rpa.PeakNHG, rpa.SteadyNHG, rpa.Overflows, rpa.GroupChurn)
	fmt.Fprintf(&b, "\npeak-NHG reduction: %dx (paper bound without protection: up to 4^8 = 65536)\n",
		native.PeakNHG/maxInt(rpa.PeakNHG, 1))
	return b.String()
}

func fig5Results(seed int64) (native, rpa migrate.Scenario3Result) {
	params := migrate.Scenario3Params{Prefixes: 256, Seed: seed}
	native = migrate.RunScenario3(params)
	params.UseRPA = true
	rpa = migrate.RunScenario3(params)
	return native, rpa
}

// Fig5Rows is the machine-readable form of Fig5.
func Fig5Rows(seed int64) []Row {
	native, rpa := fig5Results(seed)
	row := func(label string, r migrate.Scenario3Result) Row {
		return Row{Label: label, Values: map[string]float64{
			"peak_nhg":    float64(r.PeakNHG),
			"steady_nhg":  float64(r.SteadyNHG),
			"overflows":   float64(r.Overflows),
			"group_churn": float64(r.GroupChurn),
		}}
	}
	return []Row{row("distributed-wcmp", native), row("routeattribute-rpa", rpa)}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig9Outcome is one advertisement-rule arm of the Figure 9 experiment.
type Fig9Outcome struct {
	Looped            bool
	LoopedFraction    float64
	DeliveredFraction float64
	R5ForwardsViaR6   bool
	R6ForwardsViaR5   bool
}

// Fig9 reproduces the Section 5.3.1 interop scenario: R6 runs a Path
// Selection RPA that load-balances prefix D over R2 and R5 while R1–R5 run
// native multipath BGP. Advertising the best selected path installs a
// persistent R5<->R6 forwarding loop; advertising the least favorable path
// does not.
func Fig9(seed int64) string {
	run := func(mode bgp.AdvertiseMode) Fig9Outcome {
		n := migrate.Fig9Net(seed, mode)
		prefixD := migrate.Fig9Prefix

		// Packet-level view: walk hashed flows from R3 and R4. With
		// deterministic per-flow hashing, a flow that revisits a device
		// cycles forever — the persistent loop of Figure 9.
		const flows = 2000
		looped, delivered := 0, 0
		for i := 0; i < flows; i++ {
			src := topo.GenericID(3 + i%2)
			f := traffic.Flow{SrcIP: uint32(i * 2654435761), DstIP: 0xC6336400, SrcPort: uint16(i), DstPort: 443, Proto: 6}
			switch traffic.WalkFlow(n, src, prefixD.Addr(), f) {
			case traffic.FlowLooped:
				looped++
			case traffic.FlowDelivered:
				delivered++
			}
		}
		r5hops := n.NextHopWeights(topo.GenericID(5), prefixD)
		r6hops := n.NextHopWeights(topo.GenericID(6), prefixD)
		return Fig9Outcome{
			Looped:            looped > 0,
			LoopedFraction:    float64(looped) / flows,
			DeliveredFraction: float64(delivered) / flows,
			R5ForwardsViaR6:   r5hops[topo.GenericID(6)] > 0,
			R6ForwardsViaR5:   r6hops[topo.GenericID(5)] > 0,
		}
	}

	naive := run(bgp.AdvertiseBest)
	safe := run(bgp.AdvertiseLeastFavorable)
	var b strings.Builder
	fmt.Fprintf(&b, "R6 RPA-selects paths via R2 and R5 for prefix D; R[1-5] native multipath;\n")
	fmt.Fprintf(&b, "2000 hashed flows from R3/R4 walked through the FIBs.\n\n")
	fmt.Fprintf(&b, "%-34s %8s %13s %11s %12s\n", "advertisement rule", "loop?", "looped flows", "delivered", "mutual fwd")
	fmt.Fprintf(&b, "%-34s %8v %12.1f%% %10.1f%% %12v\n", "best selected path (naive)",
		naive.Looped, naive.LoopedFraction*100, naive.DeliveredFraction*100, naive.R5ForwardsViaR6 && naive.R6ForwardsViaR5)
	fmt.Fprintf(&b, "%-34s %8v %12.1f%% %10.1f%% %12v\n", "least favorable path (§5.3.1)",
		safe.Looped, safe.LoopedFraction*100, safe.DeliveredFraction*100, safe.R5ForwardsViaR6 && safe.R6ForwardsViaR5)
	return b.String()
}

// Fig10 reproduces the deployment-sequencing comparison: the equalization
// RPA deployed bottom-up (the §5.3.2 rule) vs top-down (uncoordinated),
// measuring transient funneling across the FA layer.
func Fig10(seed int64) string {
	run := func(sequenced bool) (peak, final float64) {
		rig := migrate.Fig10Base(seed)
		n, fas := rig.Net, rig.FAs
		sampler := probe.Attach(n, rig.Demands, func(_ int64, r *traffic.Result) {
			if _, share := r.MaxDeviceShare(fas); share > peak {
				peak = share
			}
		})

		ctl := &controller.Controller{
			Topo:   n.Topo,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
			Settle: func() { n.Converge() },
		}
		rollout := controller.Rollout{
			Intent:          rig.Intent,
			OriginAltitude:  topo.LayerEB.Altitude(),
			SettlePerDevice: true, // devices pick RPAs up one at a time
		}
		if !sequenced {
			// Uncoordinated: top-down order — the FA layer first, exactly
			// the FA1-first hazard of Figure 10.
			rollout.Removal = true
		}
		if err := ctl.Run(rollout); err != nil {
			panic(err)
		}
		n.Converge()
		_, final = sampler.Measure().MaxDeviceShare(fas)
		if final > peak {
			peak = final
		}
		return peak, final
	}

	unPeak, unFinal := run(false)
	seqPeak, seqFinal := run(true)
	var b strings.Builder
	fmt.Fprintf(&b, "Equalization RPA rollout over FSW/SSW/FA; share of northbound traffic\n")
	fmt.Fprintf(&b, "on the hottest FA during the rollout (fair share 0.500):\n\n")
	fmt.Fprintf(&b, "%-36s %11s %12s\n", "deployment order", "peak share", "final share")
	fmt.Fprintf(&b, "%-36s %11.3f %12.3f\n", "uncoordinated (top-down)", unPeak, unFinal)
	fmt.Fprintf(&b, "%-36s %11.3f %12.3f\n", "sequenced bottom-up (§5.3.2)", seqPeak, seqFinal)
	return b.String()
}

// Fig14 reproduces the Section 7.2 SEV: a capacity-protection RPA with
// KeepFibWarmIfMnhViolated set lets a not-production-ready FA's unexpected
// origination black-hole traffic; with the knob unset, packets fall back to
// the default route and survive.
func Fig14(seed int64) string {
	newRoute := netip.MustParsePrefix("10.0.0.0/8")
	const newCommunity = "NEW_ROUTE"
	const fas = 4

	run := func(keepWarm bool) (blackholed, delivered float64) {
		// FSW(2) - SSW(2) - FA(4) - EB(1); fa.3 is missing its backbone
		// cabling ("not production ready").
		tp := topo.New()
		for i := 0; i < 2; i++ {
			tp.AddDevice(topo.Device{ID: topo.FSWID(0, i), Layer: topo.LayerFSW, Pod: 0, Plane: -1, Grid: -1, Index: i})
			tp.AddDevice(topo.Device{ID: topo.SSWID(0, i), Layer: topo.LayerSSW, Plane: 0, Pod: -1, Grid: -1, Index: i})
		}
		for i := 0; i < fas; i++ {
			tp.AddDevice(topo.Device{ID: topo.FAID(i), Layer: topo.LayerFA, Pod: -1, Plane: -1, Grid: -1, Index: i})
		}
		tp.AddDevice(topo.Device{ID: topo.EBID(0), Layer: topo.LayerEB, Pod: -1, Plane: -1, Grid: -1, Index: 0})
		for f := 0; f < 2; f++ {
			for s := 0; s < 2; s++ {
				tp.AddLink(topo.FSWID(0, f), topo.SSWID(0, s), 100)
			}
		}
		for s := 0; s < 2; s++ {
			for a := 0; a < fas; a++ {
				tp.AddLink(topo.SSWID(0, s), topo.FAID(a), 100)
			}
		}
		for a := 0; a < fas-1; a++ { // fa.3 has no EB link
			tp.AddLink(topo.FAID(a), topo.EBID(0), 100)
		}

		n := fabric.New(tp, fabric.Options{Seed: seed})
		n.OriginateAt(topo.EBID(0), migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
		n.Converge()

		// Pre-deployed protection (the RPA of the SEV) plus the production
		// valley-free export policy (SSWs do not send routes back up).
		for s := 0; s < 2; s++ {
			cfg := &core.Config{
				PathSelection: []core.PathSelectionStatement{{
					Name:                     "protect-new-route",
					Destination:              core.Destination{Community: newCommunity},
					BgpNativeMinNextHop:      core.MinNextHop{Percent: 75},
					KeepFibWarmIfMnhViolated: keepWarm,
					ExpectedNextHops:         fas,
				}},
				RouteFilter: []core.RouteFilterStatement{{
					Name:          "valley-free-up",
					PeerSignature: "^fa\\.",
					Egress:        &core.PrefixFilter{Rules: []core.PrefixRule{}}, // nothing goes back up
				}},
			}
			if err := n.DeployRPA(topo.SSWID(0, s), cfg); err != nil {
				panic(err)
			}
		}
		n.Converge()

		// The bad FA unexpectedly originates the new route: it advertises
		// the aggregate but cannot actually serve it (no backbone path).
		n.OriginateAggregateAt(topo.FAID(3), newRoute, []string{newCommunity}, 0)
		n.Converge()

		pr := &traffic.Propagator{Net: n}
		res := pr.Run(traffic.UniformDemands(tp.ByLayer(topo.LayerFSW), newRoute, 100))
		return res.BlackholedFraction(), res.DeliveredFraction()
	}

	bhWarm, delWarm := run(true)
	bhCold, delCold := run(false)
	var b strings.Builder
	fmt.Fprintf(&b, "A not-production-ready FA (no backbone cabling) unexpectedly originates a\n")
	fmt.Fprintf(&b, "more-specific route; SSWs carry a 75%% MinNextHop protection RPA.\n\n")
	fmt.Fprintf(&b, "%-36s %12s %11s\n", "KeepFibWarmIfMnhViolated", "blackholed", "delivered")
	fmt.Fprintf(&b, "%-36s %11.0f%% %10.0f%%\n", "true  (the SEV misconfiguration)", bhWarm*100, delWarm*100)
	fmt.Fprintf(&b, "%-36s %11.0f%% %10.0f%%\n", "false (correct setting)", bhCold*100, delCold*100)
	return b.String()
}

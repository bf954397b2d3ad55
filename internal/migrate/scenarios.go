package migrate

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/probe"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// BackboneCommunity tags backbone-originated default routes, as in the
// paper's production configuration (Section 4.4).
const BackboneCommunity = "BACKBONE_DEFAULT_ROUTE"

// DefaultRoute is the IPv4 default prefix.
var DefaultRoute = netip.MustParsePrefix("0.0.0.0/0")

// ---------------------------------------------------------------------------
// Scenario 1 — first-router problem during topology expansion (Figure 2).
// ---------------------------------------------------------------------------

// Scenario1Params sizes the Figure 2 run.
type Scenario1Params struct {
	SSWs, FAv1s, Edges, FAv2s int
	Seed                      int64
	UseRPA                    bool
}

// Scenario1Result reports funneling during the expansion.
type Scenario1Result struct {
	// PeakShare is the worst fraction of northbound traffic seen on any
	// single aggregation device (FAv1 or FAv2) at any point during the
	// migration, including transients.
	PeakShare float64
	// FinalShare is the max share after full convergence with all FAv2s up.
	FinalShare float64
	// FairShare is the uniform reference (1 / live aggregation devices at
	// the end state).
	FairShare float64
	// Events is the number of emulation events processed.
	Events int64
}

// RunScenario1 executes the Figure 2 expansion: FAv2 nodes activate one at
// a time into a live FAv1+Edge topology. Without RPA, the first activated
// FAv2 attracts all SSW northbound traffic (shorter AS path); with the
// Section 4.4.1 equalization RPA deployed on the SSWs first, traffic stays
// spread across old and new paths.
func RunScenario1(p Scenario1Params) Scenario1Result {
	if p.SSWs == 0 {
		p.SSWs = 4
	}
	if p.FAv1s == 0 {
		p.FAv1s = 4
	}
	if p.Edges == 0 {
		p.Edges = 4
	}
	if p.FAv2s == 0 {
		p.FAv2s = 4
	}
	exp := topo.BuildExpansion(topo.ExpansionParams{
		SSWs: p.SSWs, FAv1s: p.FAv1s, Edges: p.Edges, FAv2s: p.FAv2s,
	})
	// Pre-wire all FAv2 links; activation is session bring-up.
	for i := 0; i < p.FAv2s; i++ {
		exp.ActivateFAv2(i)
	}
	n := fabric.New(exp.Topology, fabric.Options{Seed: p.Seed})
	for i := 0; i < p.FAv2s; i++ {
		n.SetDeviceUp(topo.FAv2ID(i), false)
	}
	for i := 0; i < exp.Params.Backbones; i++ {
		n.OriginateAt(topo.EBID(i), DefaultRoute, []string{BackboneCommunity}, 0)
	}
	n.Converge()

	if p.UseRPA {
		intent := controller.PathEqualizationIntent(exp.Topology, []topo.Layer{topo.LayerSSW}, BackboneCommunity)
		ctl := &controller.Controller{
			Topo:   exp.Topology,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
			Settle: func() { n.Converge() },
		}
		if err := ctl.Run(controller.Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()}); err != nil {
			panic("scenario1: RPA rollout failed: " + err.Error())
		}
	}

	// Aggregation devices whose funneling we watch.
	var aggDevices []topo.DeviceID
	for i := 0; i < p.FAv1s; i++ {
		aggDevices = append(aggDevices, topo.FAv1ID(i))
	}
	for i := 0; i < p.FAv2s; i++ {
		aggDevices = append(aggDevices, topo.FAv2ID(i))
	}
	demands := traffic.UniformDemands(exp.ByLayer(topo.LayerSSW), DefaultRoute, 100)

	res := Scenario1Result{}
	sampler := probe.Attach(n, demands, func(_ int64, r *traffic.Result) {
		if _, share := r.MaxDeviceShare(aggDevices); share > res.PeakShare {
			res.PeakShare = share
		}
	})

	// Activate FAv2 nodes one at a time, staggered, letting convergence
	// overlap activation as it would in production.
	for i := 0; i < p.FAv2s; i++ {
		idx := i
		n.After(time.Duration(i)*50*time.Millisecond, func() {
			n.SetDeviceUp(topo.FAv2ID(idx), true)
		})
	}
	res.Events = n.Converge()

	_, res.FinalShare = sampler.Measure().MaxDeviceShare(aggDevices)
	if res.FinalShare > res.PeakShare {
		res.PeakShare = res.FinalShare
	}
	res.FairShare = 1 / float64(p.FAv1s+p.FAv2s)
	return res
}

// ---------------------------------------------------------------------------
// Scenario 2 — last-router problem during decommission (Figure 4).
// ---------------------------------------------------------------------------

// Scenario2Params sizes the Figure 4 run.
type Scenario2Params struct {
	Planes, Grids, PerGroup, FSWsPerPlane int
	// DecommissionNumber is the SSW/FADU number being removed (paper: 1;
	// we default to 0).
	DecommissionNumber int
	Seed               int64
	UseRPA             bool
	KeepFibWarm        bool
	// UseVendorKnob enables the §3.3 naive baseline instead of RPA: the
	// vendor minimum-ECMP configuration on the decommissioned SSWs. It
	// caps funneling like the RPA but cannot keep the FIB warm, and in
	// production costs extra config pushes (Table 3).
	UseVendorKnob bool
	// MinNextHopPercent for the protection RPA (default 75, §4.4.2).
	MinNextHopPercent float64
	// Tap, when set, attaches to every speaker in the fabric and also
	// receives traffic-sample events (the hottest FADU's share against
	// fair share, plus black-holed fraction) at each sampling point.
	Tap telemetry.Tap
}

// Scenario2Result reports funneling and loss during the decommission.
type Scenario2Result struct {
	// PeakFADUShare is the worst single-FADU share of total northbound
	// traffic at any point (the last-router funnel).
	PeakFADUShare float64
	// PeakBlackholed is the worst instantaneous fraction of traffic
	// black-holed during the operation.
	PeakBlackholed float64
	// FairShare is the uniform per-FADU reference before the operation.
	FairShare float64
	Events    int64
}

func (p *Scenario2Params) setDefaults() {
	if p.Planes == 0 {
		p.Planes = 2
	}
	if p.Grids == 0 {
		p.Grids = 4
	}
	if p.PerGroup == 0 {
		p.PerGroup = 4
	}
	if p.FSWsPerPlane == 0 {
		p.FSWsPerPlane = 2
	}
	if p.MinNextHopPercent == 0 {
		p.MinNextHopPercent = 75
	}
}

// Scenario2Base builds and converges the scenario's pre-migration fabric.
// The base depends only on the geometry, seed, and vendor-knob fields — not
// on UseRPA/KeepFibWarm/MinNextHopPercent — so one base (or one restored
// snapshot of it) warm-starts every arm of a sweep point.
func Scenario2Base(p Scenario2Params) *fabric.Network {
	p.setDefaults()
	mesh := topo.BuildMesh(topo.MeshParams{
		Planes: p.Planes, Grids: p.Grids, PerGroup: p.PerGroup, FSWsPerPlane: p.FSWsPerPlane,
	})
	vendorThreshold := int(math.Ceil(p.MinNextHopPercent / 100 * float64(p.Grids)))
	n := fabric.New(mesh, fabric.Options{Seed: p.Seed, SpeakerConfig: func(d *topo.Device) bgp.Config {
		cfg := bgp.Config{Multipath: true}
		if p.UseVendorKnob && d.Layer == topo.LayerSSW && d.Index == p.DecommissionNumber {
			cfg.VendorMinECMP = vendorThreshold
		}
		return cfg
	}})
	for i := 0; i < 2; i++ {
		n.OriginateAt(topo.EBID(i), DefaultRoute, []string{BackboneCommunity}, 0)
	}
	n.Converge()
	return n
}

// RunScenario2 executes the Figure 4 decommission: all FADUs of one number
// are drained with jitter, then the matching SSWs. Without RPA, the last
// live FADU of that number funnels every same-numbered SSW's traffic; with
// the Section 4.4.2 protection RPA on the SSWs, they withdraw early (at the
// MinNextHop threshold) and traffic shifts to other SSW numbers.
func RunScenario2(p Scenario2Params) Scenario2Result {
	return RunScenario2On(Scenario2Base(p), p)
}

// RunScenario2On runs the decommission on an existing pre-migration base —
// either fresh from Scenario2Base or restored from a snapshot of it.
// RunScenario2(p) and RunScenario2On(Scenario2Base(p), p) are the same
// computation, byte for byte.
func RunScenario2On(n *fabric.Network, p Scenario2Params) Scenario2Result {
	p.setDefaults()
	mesh := n.Topo

	num := p.DecommissionNumber
	if p.UseRPA {
		var targets []topo.DeviceID
		for plane := 0; plane < p.Planes; plane++ {
			targets = append(targets, topo.SSWID(plane, num))
		}
		intent := controller.CapacityProtectionIntent(targets, BackboneCommunity, p.MinNextHopPercent, p.KeepFibWarm, p.Grids)
		ctl := &controller.Controller{
			Topo:   mesh,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
			Settle: func() { n.Converge() },
		}
		if err := ctl.Run(controller.Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()}); err != nil {
			panic("scenario2: RPA rollout failed: " + err.Error())
		}
	}

	var fadus []topo.DeviceID
	for _, d := range mesh.ByLayer(topo.LayerFADU) {
		fadus = append(fadus, d.ID)
	}
	demands := traffic.UniformDemands(mesh.ByLayer(topo.LayerFSW), DefaultRoute, 100)

	res := Scenario2Result{FairShare: 1 / float64(len(fadus))}
	if p.Tap != nil {
		n.AddTap(p.Tap)
	}
	probe.Attach(n, demands, func(now int64, r *traffic.Result) {
		dev, share := r.MaxDeviceShare(fadus)
		if share > res.PeakFADUShare {
			res.PeakFADUShare = share
		}
		bh := r.BlackholedFraction()
		if bh > res.PeakBlackholed {
			res.PeakBlackholed = bh
		}
		if p.Tap != nil {
			p.Tap.Emit(telemetry.Event{
				Kind:       telemetry.KindTrafficSample,
				Time:       now,
				Device:     string(dev),
				Share:      share,
				FairShare:  res.FairShare,
				Blackholed: bh,
			})
		}
	})

	// Drain all FADU-num devices with stagger, then the SSW-num devices.
	i := 0
	for grid := 0; grid < p.Grids; grid++ {
		g := grid
		n.After(time.Duration(i)*20*time.Millisecond, func() {
			n.SetDrained(topo.FADUID(g, num), true)
		})
		i++
	}
	for plane := 0; plane < p.Planes; plane++ {
		pl := plane
		n.After(time.Duration(i)*20*time.Millisecond, func() {
			n.SetDrained(topo.SSWID(pl, num), true)
		})
		i++
	}
	res.Events = n.Converge()
	return res
}

// ---------------------------------------------------------------------------
// Scenario 3 — transient NHG explosion during WCMP convergence (Figure 5).
// ---------------------------------------------------------------------------

// Scenario3Params sizes the Figure 5 run.
type Scenario3Params struct {
	EBs, UUs, DUs, SessionsPerPair int
	Prefixes                       int
	// MaintenanceEBs is how many EBs enter maintenance (paper: 2).
	MaintenanceEBs int
	Seed           int64
	UseRPA         bool
	// NHGLimit is the DU hardware next-hop-group capacity.
	NHGLimit int
}

// Scenario3Result reports next-hop-group pressure on the DU.
type Scenario3Result struct {
	// PeakNHG is the maximum concurrent NHG objects on the DU during
	// convergence.
	PeakNHG int
	// SteadyNHG is the NHG count after convergence.
	SteadyNHG int
	// Overflows counts NHG creations beyond the hardware limit.
	Overflows int
	// GroupChurn is total NHG creations during the event.
	GroupChurn int
	Events     int64
}

func (p *Scenario3Params) setDefaults() {
	if p.EBs == 0 {
		p.EBs = 8
	}
	if p.UUs == 0 {
		p.UUs = 4
	}
	if p.DUs == 0 {
		p.DUs = 1
	}
	if p.SessionsPerPair == 0 {
		p.SessionsPerPair = 2
	}
	if p.Prefixes == 0 {
		p.Prefixes = 256
	}
	if p.MaintenanceEBs == 0 {
		p.MaintenanceEBs = 2
	}
	if p.NHGLimit == 0 {
		p.NHGLimit = 128
	}
}

// Scenario3Base builds and converges the Figure 5 pre-maintenance fabric:
// all EB prefixes advertised and settled. The base is independent of
// UseRPA, so one base warm-starts both arms of a sweep point.
func Scenario3Base(p Scenario3Params) *fabric.Network {
	p.setDefaults()
	tp := topo.BuildFig5(p.EBs, p.UUs, p.DUs, p.SessionsPerPair, 100)
	n := fabric.New(tp, fabric.Options{
		Seed: p.Seed,
		// Wide jitter stretches the window in which different sessions and
		// prefixes sit in different intermediate states — the combinatorial
		// source of the NHG explosion.
		Jitter: 25 * time.Millisecond,
		SpeakerConfig: func(d *topo.Device) bgp.Config {
			cfg := bgp.Config{Multipath: true, WCMP: bgp.WCMPDistributed}
			if d.Layer == topo.LayerDU {
				cfg.FIBGroupLimit = p.NHGLimit
			}
			return cfg
		},
	})

	prefixes := make([]netip.Prefix, p.Prefixes)
	for k := 0; k < p.Prefixes; k++ {
		prefixes[k] = netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", k/256, k%256))
	}
	for e := 0; e < p.EBs; e++ {
		for _, pre := range prefixes {
			n.OriginateAt(topo.EBID(e), pre, []string{"EB_PREFIXES"}, 100)
		}
	}
	n.Converge()
	return n
}

// RunScenario3 executes the Figure 5 event: EBs advertise N prefixes
// through UUs to a DU over parallel sessions with distributed WCMP; two EBs
// enter maintenance (export prepend) and every per-session, per-prefix
// update lands with independent jitter. Without RPA the DU's transient
// weight vectors explode combinatorially; with a Route Attribute RPA
// prescribing weights a priori, the DU's groups stay constant.
func RunScenario3(p Scenario3Params) Scenario3Result {
	return RunScenario3On(Scenario3Base(p), p)
}

// RunScenario3On runs the maintenance event on an existing pre-maintenance
// base — fresh from Scenario3Base or restored from a snapshot of it.
// RunScenario3(p) and RunScenario3On(Scenario3Base(p), p) are the same
// computation, byte for byte.
func RunScenario3On(n *fabric.Network, p Scenario3Params) Scenario3Result {
	p.setDefaults()

	if p.UseRPA {
		// Prescribe equal weights a priori on the DU (and UUs), so
		// transient bandwidth churn never creates new groups (§4.3).
		var targets []topo.DeviceID
		for i := 0; i < p.DUs; i++ {
			targets = append(targets, topo.DUID(i))
		}
		for i := 0; i < p.UUs; i++ {
			targets = append(targets, topo.UUID(i))
		}
		intent := controller.StaticWCMPIntent(targets, core.Destination{Community: "EB_PREFIXES"})
		for dev, cfg := range intent {
			if err := n.DeployRPA(dev, cfg); err != nil {
				panic("scenario3: RPA deploy failed: " + err.Error())
			}
		}
		n.Converge()
	}

	du := n.Speaker(topo.DUID(0))
	du.Touch() // the FIB counters are checkpointed state
	du.FIB().ResetStats()

	// EBs enter maintenance with stagger: preset export policy makes their
	// advertisements less favorable (§3.4).
	for e := 0; e < p.MaintenanceEBs; e++ {
		eb := topo.EBID(e)
		n.After(time.Duration(e)*10*time.Millisecond, func() {
			n.SetPrependAll(eb, 1)
		})
	}
	events := n.Converge()

	st := du.FIB().Stats()
	return Scenario3Result{
		PeakNHG:    st.PeakGroups,
		SteadyNHG:  st.Groups,
		Overflows:  st.Overflows,
		GroupChurn: st.GroupChurn,
		Events:     events,
	}
}

package migrate

import (
	"net/netip"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/probe"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// This file executes two more Table 1 categories end to end on the
// emulated fabric: Differential Traffic Distribution (c) — the anycast
// stability policy — and Routing System Evolution (a) — origin pinning
// during an origination-scheme transition.

// AnycastResult reports routing stability for an anycast VIP during
// maintenance that breaks topology symmetry (Table 1 category c).
type AnycastResult struct {
	// FIBChanges counts forwarding-state rewrites for the VIP at the
	// client-facing switch during the maintenance — each one rehashes
	// flows, breaking anycast sessions.
	FIBChanges int
	// MinConcurrentPaths is the smallest live next-hop count observed;
	// a transient single-path state is the worst case for both load and
	// subsequent rehashing.
	MinConcurrentPaths int
	// FinalPaths is the converged next-hop count.
	FinalPaths int
}

// anycastVIP is the load-bearing anycast prefix.
var anycastVIP = netip.MustParsePrefix("203.0.113.0/24")

// RunAnycastScenario drains an anycast site's two uplinks one at a time.
// Native BGP dribbles through an intermediate single-path state
// ({m1,m2} -> {m2} -> remote): two forwarding rewrites and a funneling
// single-path window. The anycast-stability RPA (local path set gated by
// MinNextHop 2, remote set as fallback) flips wholesale in one rewrite.
func RunAnycastScenario(seed int64, useRPA bool) AnycastResult {
	// leaf uplinks: m1,m2 reach the local origin (short), m3,m4 reach the
	// remote origin through an extra hop (long).
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	for _, id := range []topo.DeviceID{"m1", "m2", "m3", "m4"} {
		tp.AddDevice(topo.Device{ID: id, Layer: topo.LayerFADU})
		tp.AddLink("leaf", id, 100)
	}
	tp.AddDevice(topo.Device{ID: "site-local", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "relay", Layer: topo.LayerFAUU})
	tp.AddDevice(topo.Device{ID: "site-remote", Layer: topo.LayerEB})
	tp.AddLink("m1", "site-local", 100)
	tp.AddLink("m2", "site-local", 100)
	tp.AddLink("m3", "relay", 100)
	tp.AddLink("m4", "relay", 100)
	tp.AddLink("relay", "site-remote", 100)

	n := fabric.New(tp, fabric.Options{Seed: seed})
	n.OriginateAt("site-local", anycastVIP, []string{"ANYCAST_VIP"}, 0)
	n.OriginateAt("site-remote", anycastVIP, []string{"ANYCAST_VIP"}, 0)
	n.Converge()

	if useRPA {
		cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
			Name:        "anycast-stability",
			Destination: core.Destination{Community: "ANYCAST_VIP"},
			PathSets: []core.PathSet{
				{
					Name:       "local-site",
					Signature:  core.PathSignature{PeerRegex: "^(m1|m2)$"},
					MinNextHop: core.MinNextHop{Count: 2},
				},
				{
					Name:      "remote-site",
					Signature: core.PathSignature{PeerRegex: "^(m3|m4)$"},
				},
			},
		}}}
		if err := n.DeployRPA("leaf", cfg); err != nil {
			panic("anycast: " + err.Error())
		}
		n.Converge()
	}

	leafFIB := n.Speaker("leaf").FIB()
	res := AnycastResult{MinConcurrentPaths: len(leafFIB.Lookup(anycastVIP))}
	n.Speaker("leaf").Touch() // the FIB counters are checkpointed state
	leafFIB.ResetStats()
	probe.Attach(n, nil, func(int64, *traffic.Result) {
		if cur := len(leafFIB.Lookup(anycastVIP)); cur > 0 && cur < res.MinConcurrentPaths {
			res.MinConcurrentPaths = cur
		}
	})

	// Maintenance: the local site's uplinks drain with jitter.
	n.After(0, func() { n.SetDrained("m1", true) })
	n.After(20*time.Millisecond, func() { n.SetDrained("m2", true) })
	n.Converge()

	res.FIBChanges = leafFIB.Stats().Writes
	res.FinalPaths = len(leafFIB.Lookup(anycastVIP))
	return res
}

// EvolutionResult reports the origination-scheme transition (Table 1
// category a).
type EvolutionResult struct {
	// ShareOldBefore/ShareNewBefore: traffic split across origination
	// schemes before the cutover.
	ShareOldBefore, ShareNewBefore float64
	// ShareOldAfter/ShareNewAfter: after the single-RPA-update cutover.
	ShareOldAfter, ShareNewAfter float64
	// CutoverSteps is the number of fleet operations the flip took.
	CutoverSteps int
}

// RunEvolutionScenario models a routing-system evolution: the same service
// prefix is originated by the legacy scheme (origin-old) and, mid-
// transition, by the new scheme (origin-new) with identical attributes.
// Origin pinning keeps all traffic on the validated legacy origin while
// both coexist; the cutover is a single RPA update repinning to the new
// origin — no fleet-wide config push, no residue (the old pin is removed
// with the RPA).
func RunEvolutionScenario(seed int64) EvolutionResult {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	tp.AddDevice(topo.Device{ID: "up-old", Layer: topo.LayerFADU})
	tp.AddDevice(topo.Device{ID: "up-new", Layer: topo.LayerFADU})
	tp.AddDevice(topo.Device{ID: "origin-old", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "origin-new", Layer: topo.LayerEB})
	tp.AddLink("leaf", "up-old", 100)
	tp.AddLink("leaf", "up-new", 100)
	tp.AddLink("up-old", "origin-old", 100)
	tp.AddLink("up-new", "origin-new", 100)

	svc := netip.MustParsePrefix("10.50.0.0/16")
	n := fabric.New(tp, fabric.Options{Seed: seed})
	n.OriginateAt("origin-old", svc, []string{"SVC"}, 0)
	n.OriginateAt("origin-new", svc, []string{"SVC"}, 0) // new scheme comes up mid-transition
	n.Converge()

	oldASN := tp.Device("origin-old").ASN
	newASN := tp.Device("origin-new").ASN
	pin := func(asn uint32) *core.Config {
		intent := controller.OriginPinningIntent([]topo.DeviceID{"leaf"},
			core.Destination{Community: "SVC"}, []uint32{asn})
		return intent["leaf"]
	}

	// Phase 1: pin to the validated legacy origin while both coexist.
	if err := n.DeployRPA("leaf", pin(oldASN)); err != nil {
		panic("evolution: " + err.Error())
	}
	n.Converge()

	pr := &traffic.Propagator{Net: n}
	measure := func() (oldShare, newShare float64) {
		r := pr.Run([]traffic.Demand{{Source: "leaf", Prefix: svc, Volume: 100}})
		return r.Load("origin-old") / 100, r.Load("origin-new") / 100
	}
	res := EvolutionResult{}
	res.ShareOldBefore, res.ShareNewBefore = measure()

	// Phase 2: the cutover — one RPA update repins to the new origin.
	if err := n.DeployRPA("leaf", pin(newASN)); err != nil {
		panic("evolution: " + err.Error())
	}
	n.Converge()
	res.CutoverSteps = 1
	res.ShareOldAfter, res.ShareNewAfter = measure()
	return res
}

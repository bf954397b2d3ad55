package traffic

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"centralium/internal/bgp"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/topo"
)

var defaultRoute = netip.MustParsePrefix("0.0.0.0/0")

// diamondNet builds origin - {m1, m2} - leaf and converges BGP.
func diamondNet(t *testing.T) *fabric.Network {
	t.Helper()
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin"})
	tp.AddDevice(topo.Device{ID: "m1"})
	tp.AddDevice(topo.Device{ID: "m2"})
	tp.AddDevice(topo.Device{ID: "leaf"})
	tp.AddLink("origin", "m1", 100)
	tp.AddLink("origin", "m2", 100)
	tp.AddLink("m1", "leaf", 100)
	tp.AddLink("m2", "leaf", 100)
	n := fabric.New(tp, fabric.Options{Seed: 4})
	n.OriginateAt("origin", defaultRoute, nil, 0)
	n.Converge()
	return n
}

func TestFluidSplitsECMP(t *testing.T) {
	n := diamondNet(t)
	pr := &Propagator{Net: n}
	res := pr.Run([]Demand{{Source: "leaf", Prefix: defaultRoute, Volume: 100}})

	if math.Abs(res.Delivered-100) > 1e-6 {
		t.Fatalf("Delivered = %v, want 100", res.Delivered)
	}
	if res.Blackholed != 0 || res.HasLoop() {
		t.Fatalf("unexpected loss: %+v", res)
	}
	// Each mid carries half.
	if math.Abs(res.Load("m1")-50) > 1e-6 || math.Abs(res.Load("m2")-50) > 1e-6 {
		t.Fatalf("mid loads = %v / %v, want 50/50", res.Load("m1"), res.Load("m2"))
	}
	if links := res.LinkLoad(); math.Abs(links[LinkKey{"leaf", "m1"}]-50) > 1e-6 {
		t.Fatalf("link load = %v", links)
	}
	if res.DeliveredFraction() != 1 {
		t.Fatalf("DeliveredFraction = %v", res.DeliveredFraction())
	}
}

func TestBlackholeDetection(t *testing.T) {
	// A network with a specific aggregate but no default route: traffic to
	// an uncovered prefix black-holes at the source.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin"})
	tp.AddDevice(topo.Device{ID: "leaf"})
	tp.AddLink("origin", "leaf", 100)
	n := fabric.New(tp, fabric.Options{Seed: 2})
	n.OriginateAt("origin", netip.MustParsePrefix("10.0.0.0/8"), nil, 0)
	n.Converge()

	pr := &Propagator{Net: n}
	res := pr.Run([]Demand{{Source: "leaf", Prefix: netip.MustParsePrefix("203.0.113.0/24"), Volume: 10}})
	if res.Blackholed != 10 || res.Delivered != 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.BlackholedFraction() != 1 {
		t.Fatalf("BlackholedFraction = %v", res.BlackholedFraction())
	}
	// LPM: the covered prefix is delivered even though the demand prefix is
	// more specific than the route.
	res = pr.Run([]Demand{{Source: "leaf", Prefix: netip.MustParsePrefix("10.1.2.0/24"), Volume: 4}})
	if res.Delivered != 4 {
		t.Fatalf("LPM delivery failed: %+v", res)
	}
}

func TestFunnelMetric(t *testing.T) {
	n := diamondNet(t)
	// Drain m1: all traffic funnels through m2.
	n.SetDrained("m1", true)
	n.Converge()
	pr := &Propagator{Net: n}
	res := pr.Run([]Demand{{Source: "leaf", Prefix: defaultRoute, Volume: 100}})
	dev, share := res.MaxDeviceShare([]topo.DeviceID{"m1", "m2"})
	if dev != "m2" || math.Abs(share-1) > 1e-6 {
		t.Fatalf("MaxDeviceShare = %v %v, want m2 1.0", dev, share)
	}
	if math.Abs(res.Delivered-100) > 1e-6 {
		t.Fatalf("Delivered = %v", res.Delivered)
	}
}

func TestMaxDeviceShareEdgeCases(t *testing.T) {
	r := &Result{Injected: 0}
	if _, share := r.MaxDeviceShare([]topo.DeviceID{"x"}); share != 0 {
		t.Fatal("share of zero traffic")
	}
	if r.DeliveredFraction() != 0 || r.BlackholedFraction() != 0 {
		t.Fatal("fractions of zero traffic")
	}
	if r.Load("x") != 0 || len(r.LinkLoad()) != 0 {
		t.Fatal("loads of an empty result")
	}
	// A demand from a device the network does not have reaches no FIB.
	res := (&Propagator{Net: diamondNet(t)}).Run([]Demand{{Source: "nowhere", Prefix: defaultRoute, Volume: 5}})
	if res.Blackholed != 5 || res.Load("nowhere") != 0 || res.Load("leaf") != 0 {
		t.Fatalf("unknown source: %+v", res)
	}
}

func TestUtilization(t *testing.T) {
	n := diamondNet(t)
	pr := &Propagator{Net: n}
	res := pr.Run([]Demand{{Source: "leaf", Prefix: defaultRoute, Volume: 100}})
	util := res.Utilization(n.Topo)
	// 50 over a 100G hop = 0.5.
	if got := util[LinkKey{"leaf", "m1"}]; math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("utilization = %v", got)
	}
	if got := res.MaxUtilization(n.Topo); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("MaxUtilization = %v", got)
	}
}

func TestLoopDetection(t *testing.T) {
	// Hand-build a two-node forwarding loop by draining propagation
	// through FIB manipulation: use a network then poison FIBs directly.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "a"})
	tp.AddDevice(topo.Device{ID: "b"})
	tp.AddLink("a", "b", 100)
	n := fabric.New(tp, fabric.Options{Seed: 1})
	n.Converge()
	// Install mutually-pointing FIB entries via each speaker's table.
	sessID := "" // discover the session id from a's peers
	for _, s := range n.Speaker("a").Peers() {
		sessID = string(s)
	}
	p := netip.MustParsePrefix("10.0.0.0/8")
	n.Speaker("a").FIB().Install(p, []fib.NextHop{{ID: sessID, Weight: 1}})
	n.Speaker("b").FIB().Install(p, []fib.NextHop{{ID: sessID, Weight: 1}})
	pr := &Propagator{Net: n, MaxHops: 64}
	res := pr.Run([]Demand{{Source: "a", Prefix: p, Volume: 10}})
	if !res.HasLoop() {
		t.Fatalf("loop not detected: %+v", res)
	}
	if res.Looped < 9.9 {
		t.Fatalf("Looped = %v, want ~10", res.Looped)
	}
}

func TestUniformDemands(t *testing.T) {
	tp := topo.BuildMesh(topo.MeshParams{Planes: 2, Grids: 2, PerGroup: 2})
	ds := UniformDemands(tp.ByLayer(topo.LayerSSW), defaultRoute, 10)
	if len(ds) != 4 {
		t.Fatalf("demands = %d, want 4", len(ds))
	}
	for _, d := range ds {
		if d.Volume != 10 || d.Prefix != defaultRoute {
			t.Fatalf("demand = %+v", d)
		}
	}
}

func TestWeightedSplit(t *testing.T) {
	// Verify WCMP weights shape the fluid split: install 3:1 weights.
	n := diamondNet(t)
	var sessM1, sessM2 string
	for _, s := range n.Speaker("leaf").Peers() {
		if peer, _ := n.SessionPeer("leaf", s); peer == "m1" {
			sessM1 = string(s)
		} else if peer == "m2" {
			sessM2 = string(s)
		}
	}
	n.Speaker("leaf").FIB().Install(defaultRoute, []fib.NextHop{
		{ID: sessM1, Weight: 3}, {ID: sessM2, Weight: 1},
	})
	pr := &Propagator{Net: n}
	res := pr.Run([]Demand{{Source: "leaf", Prefix: defaultRoute, Volume: 100}})
	if math.Abs(res.Load("m1")-75) > 1e-6 || math.Abs(res.Load("m2")-25) > 1e-6 {
		t.Fatalf("loads = %v/%v, want 75/25", res.Load("m1"), res.Load("m2"))
	}
}

func TestPlaceFlowRespectsWeights(t *testing.T) {
	hops := []fib.NextHop{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}}
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		f := Flow{SrcIP: uint32(i * 2654435761), DstIP: 42, SrcPort: uint16(i), DstPort: 443, Proto: 6}
		h, ok := PlaceFlow(f, hops)
		if !ok {
			t.Fatal("placement failed")
		}
		counts[h.ID]++
	}
	ratio := float64(counts["a"]) / float64(counts["b"])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("flow ratio = %v, want ~3", ratio)
	}
}

func TestPlaceFlowDeterministic(t *testing.T) {
	f := Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	hops := []fib.NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}
	h1, _ := PlaceFlow(f, hops)
	h2, _ := PlaceFlow(f, hops)
	if h1.ID != h2.ID {
		t.Fatal("placement not deterministic")
	}
	if _, ok := PlaceFlow(f, nil); ok {
		t.Fatal("placement on empty group succeeded")
	}
	if _, ok := PlaceFlow(f, []fib.NextHop{{ID: "x", Weight: 0}}); ok {
		t.Fatal("placement on zero-weight group succeeded")
	}
}

func TestFluidConservationProperty(t *testing.T) {
	// Property: delivered + blackholed + looped == injected.
	n := diamondNet(t)
	pr := &Propagator{Net: n}
	f := func(volRaw uint16) bool {
		vol := float64(volRaw%1000) + 1
		res := pr.Run([]Demand{{Source: "leaf", Prefix: defaultRoute, Volume: vol}})
		sum := res.Delivered + res.Blackholed + res.Looped
		return math.Abs(sum-vol) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLinkKeyString(t *testing.T) {
	k := LinkKey{From: "a", To: "b"}
	if k.String() != "a->b" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestWalkFlowOutcomes(t *testing.T) {
	n := diamondNet(t)
	dst := netip.MustParseAddr("0.0.0.0")
	f := Flow{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}

	if got := WalkFlow(n, "leaf", dst, f); got != FlowDelivered {
		t.Fatalf("WalkFlow = %v, want delivered", got)
	}
	// Unroutable destination from a node with no matching route.
	tp2 := topo.New()
	tp2.AddDevice(topo.Device{ID: "lone"})
	n2 := fabric.New(tp2, fabric.Options{Seed: 1})
	if got := WalkFlow(n2, "lone", netip.MustParseAddr("203.0.113.1"), f); got != FlowBlackholed {
		t.Fatalf("WalkFlow = %v, want blackholed", got)
	}
	// Hand-built loop.
	tp3 := topo.New()
	tp3.AddDevice(topo.Device{ID: "a"})
	tp3.AddDevice(topo.Device{ID: "b"})
	tp3.AddLink("a", "b", 100)
	n3 := fabric.New(tp3, fabric.Options{Seed: 1})
	n3.Converge()
	var sess string
	for _, s := range n3.Speaker("a").Peers() {
		sess = string(s)
	}
	p := netip.MustParsePrefix("10.0.0.0/8")
	n3.Speaker("a").FIB().Install(p, []fib.NextHop{{ID: sess, Weight: 1}})
	n3.Speaker("b").FIB().Install(p, []fib.NextHop{{ID: sess, Weight: 1}})
	if got := WalkFlow(n3, "a", netip.MustParseAddr("10.1.1.1"), f); got != FlowLooped {
		t.Fatalf("WalkFlow = %v, want looped", got)
	}
	// Outcome names.
	if FlowDelivered.String() != "delivered" || FlowBlackholed.String() != "blackholed" || FlowLooped.String() != "looped" {
		t.Error("FlowOutcome.String wrong")
	}
}

func TestWalkFlowMatchesFluidStatistically(t *testing.T) {
	// Property: over many flows the hashed placement approximates the fluid
	// split on the diamond (50/50 over m1/m2).
	n := diamondNet(t)
	dst := netip.MustParseAddr("0.0.0.0")
	viaM1 := 0
	const flows = 4000
	for i := 0; i < flows; i++ {
		f := Flow{SrcIP: uint32(i * 2654435761), DstIP: 7, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		// Walk one hop manually to observe the choice.
		hops := n.Speaker("leaf").FIB().LookupLPM(dst)
		h, ok := PlaceFlow(f, hops)
		if !ok {
			t.Fatal("placement failed")
		}
		if peer, _ := n.SessionPeer("leaf", bgp.SessionID(h.ID)); peer == "m1" {
			viaM1++
		}
	}
	frac := float64(viaM1) / flows
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("m1 fraction = %v, want ~0.5", frac)
	}
}

// TestLoopedIsDeterministic: a star whose hub splits 1:3:7:13 toward four
// leaves that all point back circulates volume until MaxHops, and the
// volume left in the frontier must be summed in one order. Summed in map
// order, 300 runs gave two different bit patterns.
func TestLoopedIsDeterministic(t *testing.T) {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "hub"})
	leaves := []topo.DeviceID{"l1", "l2", "l3", "l4"}
	for _, l := range leaves {
		tp.AddDevice(topo.Device{ID: l})
		tp.AddLink("hub", l, 100)
	}
	n := fabric.New(tp, fabric.Options{Seed: 1})
	n.Converge()
	p := netip.MustParsePrefix("10.0.0.0/8")
	var hubHops []fib.NextHop
	for i, s := range n.Speaker("hub").Peers() {
		hubHops = append(hubHops, fib.NextHop{ID: string(s), Weight: []int{1, 3, 7, 13}[i]})
	}
	n.Speaker("hub").FIB().Install(p, hubHops)
	for _, l := range leaves {
		back := n.Speaker(l).Peers()[0]
		n.Speaker(l).FIB().Install(p, []fib.NextHop{{ID: string(back), Weight: 1}})
	}
	pr := &Propagator{Net: n, MaxHops: 33}
	demands := []Demand{{Source: "hub", Prefix: p, Volume: 10}}
	want := math.Float64bits(pr.Run(demands).Looped)
	for i := 0; i < 300; i++ {
		if got := math.Float64bits(pr.Run(demands).Looped); got != want {
			t.Fatalf("run %d: Looped = %v, first run %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

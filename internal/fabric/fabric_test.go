package fabric

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/topo"
)

var defaultRoute = netip.MustParsePrefix("0.0.0.0/0")

const backboneCommunity = "BACKBONE_DEFAULT_ROUTE"

func TestEngineOrdering(t *testing.T) {
	e := newEngine(1)
	var got []int
	e.after(30, func() { got = append(got, 3) })
	e.after(10, func() { got = append(got, 1) })
	e.after(10, func() { got = append(got, 2) }) // same time: FIFO by seq
	n, done := e.run(0)
	if n != 3 || !done {
		t.Fatalf("run = %d,%v", n, done)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.String() == "" {
		t.Error("String empty")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := newEngine(1)
	fired := 0
	e.after(100, func() { fired++ })
	e.after(200, func() { fired++ })
	e.runUntil(150, 0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.now != 150 {
		t.Fatalf("now = %d, want 150 (clock advances to deadline)", e.now)
	}
	e.run(0)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := newEngine(1)
	var loop func()
	loop = func() { e.after(1, loop) }
	e.after(1, loop)
	n, done := e.run(100)
	if done || n != 100 {
		t.Fatalf("run = %d,%v, want budget exhaustion", n, done)
	}
}

// lineTopo builds origin—mid—leaf.
func lineTopo() *topo.Topology {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "mid", Layer: topo.LayerFAUU})
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	tp.AddLink("origin", "mid", 100)
	tp.AddLink("mid", "leaf", 100)
	return tp
}

func TestEndToEndPropagation(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 42})
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()

	// Leaf learned the route with the full AS path through mid.
	hops := n.Speaker("leaf").FIB().Lookup(defaultRoute)
	if len(hops) != 1 {
		t.Fatalf("leaf FIB = %v", hops)
	}
	if peer, ok := n.SessionPeer("leaf", bgp.SessionID(hops[0].ID)); !ok || peer != "mid" {
		t.Fatalf("leaf next hop resolves to %v", peer)
	}
	// Mid forwards toward origin.
	nh := n.NextHopWeights("mid", defaultRoute)
	if nh["origin"] != 1 || len(nh) != 1 {
		t.Fatalf("mid next hops = %v", nh)
	}
	// Origin delivers locally.
	nh = n.NextHopWeights("origin", defaultRoute)
	if nh["origin"] != 1 {
		t.Fatalf("origin next hops = %v", nh)
	}
}

func TestWithdrawPropagation(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 7})
	n.OriginateAt("origin", defaultRoute, nil, 0)
	n.Converge()
	n.WithdrawAt("origin", defaultRoute)
	n.Converge()
	if n.Speaker("leaf").FIB().Lookup(defaultRoute) != nil {
		t.Fatal("withdrawal did not reach leaf")
	}
	if n.Speaker("mid").FIB().Lookup(defaultRoute) != nil {
		t.Fatal("withdrawal did not clear mid")
	}
}

// diffScenario drives one network through a migration-flavored script that
// exercises every delivery-path feature of the engine: multi-origin
// convergence, drain, link flap, session-epoch death (RestartDevice),
// device decommission, and timed runs.
func diffScenario(n *Network) {
	for i, eb := range n.Topo.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
		if i == 0 {
			n.OriginateAt(eb.ID, netip.MustParsePrefix("10.0.0.0/8"), nil, 0)
		}
	}
	for _, rsw := range n.Topo.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", rsw.Index)), nil, 0)
	}
	n.Converge()

	fadus := n.Topo.ByLayer(topo.LayerFADU)
	fauus := n.Topo.ByLayer(topo.LayerFAUU)
	ssws := n.Topo.ByLayer(topo.LayerSSW)

	// Maintenance drain with a concurrent link flap.
	n.SetDrained(fadus[0].ID, true)
	n.After(2*time.Millisecond, func() { n.SetLinkUp(fadus[1].ID, fauus[0].ID, false) })
	n.RunFor(20 * time.Millisecond)
	n.SetLinkUp(fadus[1].ID, fauus[0].ID, true)
	n.Converge()

	// Daemon restart (cold): in-flight messages die with their epoch.
	n.RestartDevice(ssws[0].ID, 5*time.Millisecond, false)
	n.RunFor(2 * time.Millisecond) // mid-restart traffic
	n.Converge()

	// Decommission one spine and undrain the FADU.
	n.SetDeviceUp(ssws[1].ID, false)
	n.SetDrained(fadus[0].ID, false)
	n.Converge()
}

// runDiffScenario runs diffScenario on a fresh default fabric, with or
// without a recording tap, and collects the comparable surface.
func runDiffScenario(seed int64, tapped bool) incrResult {
	n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: seed})
	tap := &recordTap{}
	if tapped {
		n.AddTap(tap)
	}
	diffScenario(n)
	return incrResult{
		digest: fleetDigest(n),
		stream: strings.Join(tap.lines, "\n"),
		events: n.EventsProcessed(),
		clock:  n.Now(),
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		tp := topo.BuildFabric(topo.FabricParams{})
		n := New(tp, Options{Seed: 99})
		for _, eb := range tp.ByLayer(topo.LayerEB) {
			n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
		}
		return n.Converge()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different event counts: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no events processed")
	}
}

// TestDifferentialParallelEquivalence pins what replaced intra-network
// parallelism: one goroutine drives a network, and a process drives many
// networks at once (the daemon's worker pool, the planner's candidate
// pool). Per seed the scenario runs alone and then on four goroutines
// together; every run must be byte-identical to the solo one — telemetry
// stream (content, order, timestamps), fleet FIB, clock, event count — so
// networks share no mutable state. CI runs it under the race detector.
func TestDifferentialParallelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ref := runDiffScenario(seed, true)
			if ref.events == 0 || ref.stream == "" {
				t.Fatal("scenario processed no events")
			}
			got := make([]incrResult, 4)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = runDiffScenario(seed, true)
				}()
			}
			wg.Wait()
			for _, g := range got {
				compareIncrRuns(t, ref, g)
			}
		})
	}
}

// TestDifferentialNoTap runs the same scenario with and without a telemetry
// tap: observing the fleet must not change what it does.
func TestDifferentialNoTap(t *testing.T) {
	tapped, bare := runDiffScenario(7, true), runDiffScenario(7, false)
	tapped.stream = "" // the untapped run has none to compare
	compareIncrRuns(t, tapped, bare)
}

func TestSeedChangesOrdering(t *testing.T) {
	// Different seeds should (almost surely) process different event
	// counts on a contended topology; equality would suggest jitter is
	// not applied.
	run := func(seed int64) int64 {
		tp := topo.BuildMesh(topo.MeshParams{Planes: 2, Grids: 2, PerGroup: 2})
		n := New(tp, Options{Seed: seed})
		for _, eb := range tp.ByLayer(topo.LayerEB) {
			n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
		}
		n.Converge()
		return n.EventsProcessed()
	}
	if run(1) == 0 {
		t.Fatal("no events")
	}
}

func TestFabricConvergesECMP(t *testing.T) {
	tp := topo.BuildFabric(topo.FabricParams{})
	n := New(tp, Options{Seed: 5})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
	}
	n.Converge()
	// Every RSW must reach the default route over all its FSWs (ECMP).
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		nh := n.NextHopWeights(rsw.ID, defaultRoute)
		if len(nh) != 4 {
			t.Fatalf("%s ECMP set = %v, want 4 FSWs", rsw.ID, nh)
		}
	}
	// SSWs see equal-length paths via their grid FADUs.
	for _, ssw := range tp.ByLayer(topo.LayerSSW) {
		nh := n.NextHopWeights(ssw.ID, defaultRoute)
		if len(nh) != 2 { // one FADU per grid, 2 grids
			t.Fatalf("%s next hops = %v", ssw.ID, nh)
		}
	}
}

func TestDeviceDownUp(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 3})
	n.OriginateAt("origin", defaultRoute, nil, 0)
	n.Converge()
	n.SetDeviceUp("mid", false)
	n.Converge()
	if n.Speaker("leaf").FIB().Lookup(defaultRoute) != nil {
		t.Fatal("leaf kept route after mid went down")
	}
	if n.Node("mid").Up() {
		t.Fatal("mid still up")
	}
	n.SetDeviceUp("mid", true)
	n.Converge()
	if n.Speaker("leaf").FIB().Lookup(defaultRoute) == nil {
		t.Fatal("leaf did not relearn route after mid came back")
	}
	n.SetDeviceUp("mid", true) // idempotent
}

func TestDrainDevice(t *testing.T) {
	// Diamond: origin - {m1, m2} - leaf.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin"})
	tp.AddDevice(topo.Device{ID: "m1"})
	tp.AddDevice(topo.Device{ID: "m2"})
	tp.AddDevice(topo.Device{ID: "leaf"})
	tp.AddLink("origin", "m1", 100)
	tp.AddLink("origin", "m2", 100)
	tp.AddLink("m1", "leaf", 100)
	tp.AddLink("m2", "leaf", 100)
	n := New(tp, Options{Seed: 11})
	n.OriginateAt("origin", defaultRoute, nil, 0)
	n.Converge()
	if nh := n.NextHopWeights("leaf", defaultRoute); len(nh) != 2 {
		t.Fatalf("leaf ECMP = %v, want both mids", nh)
	}
	n.SetDrained("m1", true)
	n.Converge()
	nh := n.NextHopWeights("leaf", defaultRoute)
	if len(nh) != 1 || nh["m2"] == 0 {
		t.Fatalf("leaf next hops after drain = %v, want only m2", nh)
	}
	// Drained device keeps forwarding state for in-flight packets.
	if n.Speaker("m1").FIB().Lookup(defaultRoute) == nil {
		t.Fatal("m1 dropped forwarding state while drained")
	}
}

func TestDeployRPAInFlight(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 13})
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "equalize",
		Destination: core.Destination{Community: backboneCommunity},
		PathSets: []core.PathSet{{
			Signature: core.PathSignature{Communities: []string{backboneCommunity}},
		}},
	}}}
	if err := n.DeployRPA("leaf", cfg); err != nil {
		t.Fatal(err)
	}
	n.Converge()
	if n.Speaker("leaf").Stats().RPASelections == 0 {
		t.Fatal("RPA not exercised after deployment")
	}
	if err := n.DeployRPA("leaf", &core.Config{PathSelection: []core.PathSelectionStatement{{Name: ""}}}); err == nil {
		t.Fatal("invalid RPA accepted")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 1})
	start := n.Now()
	n.RunFor(50 * time.Millisecond)
	if n.Now() != start+int64(50*time.Millisecond) {
		t.Fatalf("clock = %d", n.Now())
	}
	// A negative Jitter disables it (0 would mean the 5ms default).
	if j := New(lineTopo(), Options{Seed: 1, Jitter: -1}).opts.Jitter; j != 0 {
		t.Errorf("Options{Jitter: -1} left %v, want 0 (explicitly disabled)", j)
	}
}

func TestAfterAndOnEvent(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 1})
	var clocks []int64
	n.OnEvent(func(now int64) { clocks = append(clocks, now) })
	fired := false
	n.After(10*time.Millisecond, func() { fired = true })
	n.OriginateAt("origin", defaultRoute, nil, 0)
	processed := n.Converge()
	if !fired {
		t.Fatal("After callback not fired")
	}
	// The hook is every probe's sampling point: once per event, in order.
	if processed == 0 || int64(len(clocks)) != processed {
		t.Fatalf("OnEvent hook ran %d times for %d events", len(clocks), processed)
	}
	if !slices.IsSorted(clocks) || clocks[len(clocks)-1] != n.Now() {
		t.Fatalf("hook clocks out of order or behind the engine: last %d, now %d", clocks[len(clocks)-1], n.Now())
	}
}

func TestPrependMakesPathLessFavorable(t *testing.T) {
	// Two origins; prepending on one shifts leaf's single best path.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "o1"})
	tp.AddDevice(topo.Device{ID: "o2"})
	tp.AddDevice(topo.Device{ID: "leaf"})
	tp.AddLink("o1", "leaf", 100)
	tp.AddLink("o2", "leaf", 100)
	n := New(tp, Options{Seed: 2})
	n.OriginateAt("o1", defaultRoute, nil, 0)
	n.OriginateAt("o2", defaultRoute, nil, 0)
	n.Converge()
	if nh := n.NextHopWeights("leaf", defaultRoute); len(nh) != 2 {
		t.Fatalf("leaf ECMP = %v", nh)
	}
	n.SetPrependAll("o1", 2)
	n.Converge()
	nh := n.NextHopWeights("leaf", defaultRoute)
	if len(nh) != 1 || nh["o2"] == 0 {
		t.Fatalf("leaf next hops after prepend = %v, want only o2", nh)
	}
}

func TestParallelSessionsFig5Shape(t *testing.T) {
	tp := topo.BuildFig5(2, 2, 1, 2, 100)
	n := New(tp, Options{Seed: 9, SpeakerConfig: func(d *topo.Device) bgp.Config {
		return bgp.Config{Multipath: true, WCMP: bgp.WCMPDistributed}
	}})
	p := netip.MustParsePrefix("10.0.0.0/8")
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, p, nil, 100)
	}
	n.Converge()
	// DU has 4 sessions (2 per UU) all carrying the route.
	hops := n.Speaker(topo.DUID(0)).FIB().Lookup(p)
	if len(hops) != 4 {
		t.Fatalf("DU FIB hops = %d, want 4 (parallel sessions)", len(hops))
	}
	nh := n.NextHopWeights(topo.DUID(0), p)
	if len(nh) != 2 {
		t.Fatalf("DU neighbor set = %v, want 2 UUs", nh)
	}
}

func TestSetLinkUp(t *testing.T) {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin"})
	tp.AddDevice(topo.Device{ID: "m1"})
	tp.AddDevice(topo.Device{ID: "m2"})
	tp.AddDevice(topo.Device{ID: "leaf"})
	tp.AddLink("origin", "m1", 100)
	tp.AddLink("origin", "m2", 100)
	tp.AddLink("m1", "leaf", 100)
	tp.AddLink("m2", "leaf", 100)
	n := New(tp, Options{Seed: 17})
	n.OriginateAt("origin", defaultRoute, nil, 0)
	n.Converge()
	if nh := n.NextHopWeights("leaf", defaultRoute); len(nh) != 2 {
		t.Fatalf("leaf ECMP = %v", nh)
	}
	n.SetLinkUp("m1", "leaf", false)
	n.Converge()
	nh := n.NextHopWeights("leaf", defaultRoute)
	if len(nh) != 1 || nh["m2"] == 0 {
		t.Fatalf("leaf next hops after link failure = %v", nh)
	}
	n.SetLinkUp("m1", "leaf", true)
	n.Converge()
	if nh := n.NextHopWeights("leaf", defaultRoute); len(nh) != 2 {
		t.Fatalf("leaf ECMP after recovery = %v", nh)
	}
	// Restoring a link whose endpoint is down must stay down.
	n.SetDeviceUp("m1", false)
	n.Converge()
	n.SetLinkUp("m1", "leaf", true)
	n.Converge()
	if nh := n.NextHopWeights("leaf", defaultRoute); len(nh) != 1 {
		t.Fatalf("link to dead device re-established: %v", nh)
	}
}

func TestRandomFailureInjectionNeverBlackholesAtConvergence(t *testing.T) {
	// Property-style integration test: on a healthy multi-path fabric,
	// failing any single link (or any single non-origin device) and
	// converging must never leave a converged black hole or forwarding
	// loop — BGP reroutes around it.
	tp := topo.BuildFabric(topo.FabricParams{})
	build := func() *Network {
		n := New(tp, Options{Seed: 23})
		for _, eb := range tp.ByLayer(topo.LayerEB) {
			n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
		}
		n.Converge()
		return n
	}
	check := func(n *Network, what string) {
		t.Helper()
		pr := &trafficProbe{net: n}
		dropped, looped := pr.run(tp)
		if dropped > 1e-9 || looped > 1e-9 {
			t.Fatalf("%s: dropped %v looped %v at convergence", what, dropped, looped)
		}
	}
	// Single-link failures (sample across the topology).
	links := tp.Links()
	for i := 0; i < len(links); i += 7 {
		n := build()
		n.SetLinkUp(links[i].A, links[i].B, false)
		n.Converge()
		check(n, "link "+string(links[i].A)+"-"+string(links[i].B))
	}
	// Single-device failures at each layer (skip EBs: they are the origins,
	// and RSWs: they are the sources).
	for _, l := range []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFADU, topo.LayerFAUU} {
		n := build()
		victim := tp.ByLayer(l)[0]
		n.SetDeviceUp(victim.ID, false)
		n.Converge()
		check(n, "device "+string(victim.ID))
	}
}

// trafficProbe is a minimal fluid propagation for the failure-injection
// test (the traffic package depends on fabric, so tests here use a local
// walker to avoid an import cycle).
type trafficProbe struct{ net *Network }

func (p *trafficProbe) run(tp *topo.Topology) (dropped, looped float64) {
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		if !p.net.Node(rsw.ID).Up() {
			continue
		}
		frontier := map[topo.DeviceID]float64{rsw.ID: 1}
		for hop := 0; hop < 32 && len(frontier) > 0; hop++ {
			next := map[topo.DeviceID]float64{}
			for dev, vol := range frontier {
				nh := p.net.NextHopWeights(dev, defaultRoute)
				if len(nh) == 0 {
					dropped += vol
					continue
				}
				total := 0
				for _, w := range nh {
					total += w
				}
				for peer, w := range nh {
					share := vol * float64(w) / float64(total)
					if peer == dev {
						continue // delivered
					}
					next[peer] += share
				}
			}
			frontier = next
		}
		for _, vol := range frontier {
			looped += vol
		}
	}
	return dropped, looped
}

func TestDualStackDefaults(t *testing.T) {
	// The emulation is address-family agnostic: the paper's dual default
	// routes (0.0.0.0/0 and ::/0, §4.4) propagate side by side.
	n := New(lineTopo(), Options{Seed: 6})
	v6Default := netip.MustParsePrefix("::/0")
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.OriginateAt("origin", v6Default, []string{backboneCommunity}, 0)
	n.Converge()
	for _, dev := range []topo.DeviceID{"mid", "leaf"} {
		if n.Speaker(dev).FIB().Lookup(defaultRoute) == nil {
			t.Errorf("%s missing v4 default", dev)
		}
		if n.Speaker(dev).FIB().Lookup(v6Default) == nil {
			t.Errorf("%s missing v6 default", dev)
		}
	}
	// LPM keeps the families separate: each address matches its own
	// family's default, one session toward mid.
	for _, addr := range []string{"2001:db8::1", "192.0.2.1"} {
		hops := n.Speaker("leaf").FIB().LookupLPM(netip.MustParseAddr(addr))
		if len(hops) != 1 {
			t.Errorf("%s: LPM = %v", addr, hops)
			continue
		}
		if peer, ok := n.SessionPeer("leaf", bgp.SessionID(hops[0].ID)); !ok || peer != "mid" {
			t.Errorf("%s: LPM hop %s resolves to %q, want mid", addr, hops[0].ID, peer)
		}
	}
}

package fabric

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// The oracle conformance suite: every scenario runs under the
// full-recompute oracle and with the advertise memo trusted, and all runs
// must be byte-identical — same telemetry stream (content, order,
// timestamps), same fleet FIB, same clock, same event count. This is the
// memo's proof obligation (DESIGN.md, "Advertise memo and the oracle"):
// skipping the advertise loop is only legal when it is observationally
// equivalent to walking it.

// recordTap renders every tap event to a line so two runs can be compared
// byte-for-byte, ordering and timestamps included.
type recordTap struct {
	lines []string
}

func (r *recordTap) Emit(ev telemetry.Event) {
	r.lines = append(r.lines, fmt.Sprintf("%+v", ev))
}

// fleetDigest renders every up device's FIB, sorted by device then prefix.
func fleetDigest(n *Network) string {
	var b strings.Builder
	for _, id := range n.UpDevices() {
		for _, e := range n.Speaker(id).FIB().Snapshot() {
			fmt.Fprintf(&b, "%s %s %v\n", id, e.Prefix, e.Hops)
		}
	}
	return b.String()
}

// firstDiff locates the first divergent line of two multi-line strings for
// a readable failure message.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// incrPhases is a scenario cut into phases so the mode-flip test can
// switch engines between any two phases.
type incrPhases []func(*Network)

func (ps incrPhases) run(n *Network) {
	for _, p := range ps {
		p(n)
	}
}

func mustDeploy(n *Network, dev topo.DeviceID, cfg *core.Config) {
	if err := n.DeployRPA(dev, cfg); err != nil {
		panic(err)
	}
}

// incrScenarioRPA is the migration-flavored scenario: PathSelection RPA
// deploys (including a redeploy), maintenance drains, AS-path prepends, a
// link flap, and a cold daemon restart — every operation that bumps the
// advertisement epoch.
func incrScenarioRPA() incrPhases {
	prefSpine := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "prefer-spine",
		Destination: core.Destination{Community: backboneCommunity},
		PathSets: []core.PathSet{{
			Name:       "spine",
			Signature:  core.PathSignature{NextHopRegex: `^ssw\.`},
			MinNextHop: core.MinNextHop{Count: 2},
		}},
		BgpNativeMinNextHop:      core.MinNextHop{Count: 1},
		KeepFibWarmIfMnhViolated: true,
	}}}
	prefSpineTight := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "prefer-spine",
		Destination: core.Destination{Community: backboneCommunity},
		PathSets: []core.PathSet{{
			Name:       "spine",
			Signature:  core.PathSignature{NextHopRegex: `^ssw\.pl0\.`},
			MinNextHop: core.MinNextHop{Count: 1},
		}},
		BgpNativeMinNextHop:      core.MinNextHop{Count: 2},
		KeepFibWarmIfMnhViolated: true,
	}}}
	return incrPhases{
		func(n *Network) {
			for i, eb := range n.Topo.ByLayer(topo.LayerEB) {
				n.OriginateAt(eb.ID, netip.MustParsePrefix("0.0.0.0/0"), []string{backboneCommunity}, 0)
				if i == 0 {
					n.OriginateAt(eb.ID, netip.MustParsePrefix("10.0.0.0/8"), nil, 0)
				}
			}
			for _, rsw := range n.Topo.ByLayer(topo.LayerRSW) {
				n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", rsw.Index)), nil, 0)
			}
			n.Converge()
			for _, fsw := range n.Topo.ByLayer(topo.LayerFSW) {
				mustDeploy(n, fsw.ID, prefSpine)
			}
			n.Converge()
		},
		func(n *Network) {
			fadus := n.Topo.ByLayer(topo.LayerFADU)
			fauus := n.Topo.ByLayer(topo.LayerFAUU)
			ssws := n.Topo.ByLayer(topo.LayerSSW)
			n.SetDrained(fadus[0].ID, true)
			n.SetPrependAll(ssws[0].ID, 2)
			n.After(2*time.Millisecond, func() { n.SetLinkUp(fadus[1].ID, fauus[0].ID, false) })
			n.RunFor(20 * time.Millisecond)
			n.SetLinkUp(fadus[1].ID, fauus[0].ID, true)
			n.Converge()
		},
		func(n *Network) {
			fadus := n.Topo.ByLayer(topo.LayerFADU)
			ssws := n.Topo.ByLayer(topo.LayerSSW)
			n.RestartDevice(ssws[0].ID, 5*time.Millisecond, false)
			n.RunFor(2 * time.Millisecond)
			n.Converge()
			n.SetDrained(fadus[0].ID, false)
			n.SetPrependAll(ssws[0].ID, 0)
			for _, fsw := range n.Topo.ByLayer(topo.LayerFSW) {
				mustDeploy(n, fsw.ID, prefSpineTight)
			}
			n.Converge()
		},
	}
}

// incrScenarioWeights is the traffic-engineering scenario: a RouteAttribute
// RPA with an expiry pins WCMP weights at the spine layer, then expires
// mid-run while drains and a device decommission force recomputes on both
// sides of the expiry boundary. Expiry is the one time-dependent input of
// the decision process; weights are computed fresh on every run, so the
// suite proves the memo needs no clock-driven invalidation for it.
func incrScenarioWeights() incrPhases {
	return incrPhases{
		func(n *Network) {
			for _, eb := range n.Topo.ByLayer(topo.LayerEB) {
				n.OriginateAt(eb.ID, netip.MustParsePrefix("0.0.0.0/0"), []string{backboneCommunity}, 100)
			}
			for _, rsw := range n.Topo.ByLayer(topo.LayerRSW) {
				n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("192.168.%d.0/24", rsw.Index)), nil, 0)
			}
			n.Converge()
			pin := &core.Config{RouteAttribute: []core.RouteAttributeStatement{{
				Name:        "pin-grid-weights",
				Destination: core.Destination{Community: backboneCommunity},
				NextHopWeights: []core.NextHopWeight{{
					Signature: core.PathSignature{NextHopRegex: `^fadu\.g[0-9]+\.0$`},
					Weight:    3,
				}},
				DefaultWeight: 1,
				ExpiresAt:     n.Now() + int64(30*time.Millisecond),
			}}}
			for _, ssw := range n.Topo.ByLayer(topo.LayerSSW) {
				mustDeploy(n, ssw.ID, pin)
			}
			n.Converge()
		},
		func(n *Network) {
			fadus := n.Topo.ByLayer(topo.LayerFADU)
			n.SetDrained(fadus[0].ID, true)
			n.RunFor(40 * time.Millisecond) // the statement expires mid-run
			n.SetDrained(fadus[0].ID, false)
			n.Converge()
		},
		func(n *Network) {
			fauus := n.Topo.ByLayer(topo.LayerFAUU)
			n.SetDeviceUp(fauus[1].ID, false)
			n.Converge()
		},
	}
}

// incrResult is everything one run exposes for comparison.
type incrResult struct {
	digest string
	stream string
	events int64
	clock  int64
	incr   bgp.IncrementalStats
	rpaSel int64
	wOver  int64
}

// runIncrMode runs a scenario on a fresh default fabric with the given
// decision-engine mode and collects the comparable surface. Distributed
// WCMP is on so weight paths are exercised.
func runIncrMode(seed int64, full bool, phases incrPhases) incrResult {
	tp := topo.BuildFabric(topo.FabricParams{})
	n := New(tp, Options{Seed: seed, SpeakerConfig: func(*topo.Device) bgp.Config {
		return bgp.Config{Multipath: true, WCMP: bgp.WCMPDistributed}
	}})
	n.SetFullRecompute(full)
	tap := &recordTap{}
	n.AddTap(tap)
	phases.run(n)
	res := incrResult{
		digest: fleetDigest(n),
		stream: strings.Join(tap.lines, "\n"),
		events: n.EventsProcessed(),
		clock:  n.Now(),
		incr:   n.IncrementalStats(),
	}
	for _, id := range n.UpDevices() {
		st := n.Speaker(id).Stats()
		res.rpaSel += int64(st.RPASelections)
		res.wOver += int64(st.WeightOverrides)
	}
	return res
}

func compareIncrRuns(t *testing.T, ref, got incrResult) {
	t.Helper()
	if got.events != ref.events {
		t.Errorf("events processed %d, reference %d", got.events, ref.events)
	}
	if got.clock != ref.clock {
		t.Errorf("final clock %d, reference %d", got.clock, ref.clock)
	}
	if got.digest != ref.digest {
		t.Errorf("fleet FIB digest diverged:\n%s", firstDiff(ref.digest, got.digest))
	}
	if got.stream != ref.stream {
		t.Errorf("telemetry stream diverged:\n%s", firstDiff(ref.stream, got.stream))
	}
}

// TestIncrementalDifferentialConformance is the headline artifact: 10
// seeds x 2 scenarios, the memo-trusting fleet byte-identical to the
// full-recompute oracle. Vacuousness guards on both sides: the oracle must
// really exercise RPA machinery, and the other run must really hit the
// advertise memo (equivalence by silent fallback to the oracle would prove
// nothing).
func TestIncrementalDifferentialConformance(t *testing.T) {
	scenarios := []struct {
		name    string
		build   func() incrPhases
		needRPA bool // scenario must drive PathSelection decisions
		needWt  bool // scenario must drive RouteAttribute weight overrides
	}{
		{"rpa-migration", incrScenarioRPA, true, false},
		{"expiring-weights", incrScenarioWeights, false, true},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 10; seed++ {
			if testing.Short() && seed > 3 {
				break
			}
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				ref := runIncrMode(seed, true, sc.build())
				if n := ref.incr.AdvertiseMemoHits; n != 0 {
					t.Errorf("oracle run reports %d advertise-memo hits, want 0", n)
				}
				if sc.needRPA && ref.rpaSel == 0 {
					t.Fatal("scenario never drove an RPA path selection; conformance would be vacuous")
				}
				if sc.needWt && ref.wOver == 0 {
					t.Fatal("scenario never drove a weight override; conformance would be vacuous")
				}
				got := runIncrMode(seed, false, sc.build())
				compareIncrRuns(t, ref, got)
				if got.incr.AdvertiseMemoHits == 0 {
					t.Error("no advertise-memo hits; the memo never engaged")
				}
			})
		}
	}
}

// TestIncrementalMidRunModeFlip switches modes between scenario phases —
// oracle, then memo, then oracle again — and must still match both pure
// runs. This pins SetFullRecompute's contract that a mid-run flip is
// result-free (the oracle keeps the memo's record current).
func TestIncrementalMidRunModeFlip(t *testing.T) {
	const seed = 21
	ref := runIncrMode(seed, false, incrScenarioRPA())

	tp := topo.BuildFabric(topo.FabricParams{})
	n := New(tp, Options{Seed: seed, SpeakerConfig: func(*topo.Device) bgp.Config {
		return bgp.Config{Multipath: true, WCMP: bgp.WCMPDistributed}
	}})
	tap := &recordTap{}
	n.AddTap(tap)
	phases := incrScenarioRPA()
	n.SetFullRecompute(true)
	phases[0](n)
	n.SetFullRecompute(false)
	phases[1](n)
	n.SetFullRecompute(true)
	phases[2](n)

	if got, want := n.EventsProcessed(), ref.events; got != want {
		t.Errorf("events processed: hybrid %d, reference %d", got, want)
	}
	if got, want := fleetDigest(n), ref.digest; got != want {
		t.Errorf("fleet FIB digest diverged:\n%s", firstDiff(want, got))
	}
	if got, want := strings.Join(tap.lines, "\n"), ref.stream; got != want {
		t.Errorf("telemetry stream diverged:\n%s", firstDiff(want, got))
	}
	if n.FullRecompute() != true {
		t.Error("FullRecompute() = false after flipping the fleet back to the oracle")
	}
}

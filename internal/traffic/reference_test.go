package traffic_test

// The propagator differential: the dense, cached Propagator against the
// map-based one it replaced, kept here as the reference. Both run after
// every engine event — not only where the probe would sample — of the
// phases the probe's consumers run: every planner scenario's clean,
// reversed and chaos-armed schedule and unprotected drain, and both chaos
// rigs under both arms. One Propagator lives for a whole phase, so a
// resolved-hop entry that outlived its FIB write would show here. The
// contract is bit-identical scalars, device loads and link loads. CI runs
// this under -race -count=3.

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/chaos"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

const refSeeds = 10

// refResult is the reference's outcome, in the maps the Result used to
// carry.
type refResult struct {
	load                                    map[topo.DeviceID]float64
	links                                   map[traffic.LinkKey]float64
	delivered, blackholed, looped, injected float64
}

// refNextHops is the retired fabric.NextHopWeightsAddr: the LPM entry's
// sessions resolved to neighbours, parallel sessions merged.
func refNextHops(n *fabric.Network, dev topo.DeviceID, addr netip.Addr) map[topo.DeviceID]int {
	hops := n.Speaker(dev).FIB().LookupLPM(addr)
	if hops == nil {
		return nil
	}
	out := make(map[topo.DeviceID]int, len(hops))
	for _, h := range hops {
		if h.ID == bgp.LocalNextHop {
			out[dev] += h.Weight
			continue
		}
		if peer, ok := n.SessionPeer(dev, bgp.SessionID(h.ID)); ok {
			out[peer] += h.Weight
		}
	}
	return out
}

func sortedKeys(m map[topo.DeviceID]float64) []topo.DeviceID {
	out := make([]topo.DeviceID, 0, len(m))
	for dev := range m {
		out = append(out, dev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reference is the map-based propagator: a frontier map per hop visited in
// sorted order, an LPM and a session lookup per visit. Its final Looped sum
// runs in sorted order too.
func reference(n *fabric.Network, demands []traffic.Demand, maxHops int) refResult {
	if maxHops <= 0 {
		maxHops = max(4*n.Topo.NumDevices(), 32)
	}
	res := refResult{load: map[topo.DeviceID]float64{}, links: map[traffic.LinkKey]float64{}}
	for _, d := range demands {
		res.injected += d.Volume
		frontier := map[topo.DeviceID]float64{d.Source: d.Volume}
		for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
			next := map[topo.DeviceID]float64{}
			for _, dev := range sortedKeys(frontier) {
				vol := frontier[dev]
				res.load[dev] += vol
				nh := refNextHops(n, dev, d.Prefix.Addr())
				total := 0
				for _, w := range nh {
					total += w
				}
				if len(nh) == 0 || total <= 0 {
					res.blackholed += vol
					continue
				}
				for peer, w := range nh {
					share := vol * float64(w) / float64(total)
					if share < 1e-9 {
						continue
					}
					if peer == dev {
						res.delivered += share
						continue
					}
					res.links[traffic.LinkKey{From: dev, To: peer}] += share
					next[peer] += share
				}
			}
			frontier = next
		}
		for _, dev := range sortedKeys(frontier) {
			res.looped += frontier[dev]
		}
	}
	return res
}

// sameBits compares the Result against the reference bit for bit and
// returns the first difference, or "".
func sameBits(n *fabric.Network, got *traffic.Result, want refResult) string {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Delivered", got.Delivered, want.delivered},
		{"Blackholed", got.Blackholed, want.blackholed},
		{"Looped", got.Looped, want.looped},
		{"Injected", got.Injected, want.injected},
	} {
		if !eq(f.got, f.want) {
			return fmt.Sprintf("%s = %v, reference %v", f.name, f.got, f.want)
		}
	}
	for _, d := range n.Topo.Devices() {
		if g, w := got.Load(d.ID), want.load[d.ID]; !eq(g, w) {
			return fmt.Sprintf("Load(%s) = %v, reference %v", d.ID, g, w)
		}
	}
	links := got.LinkLoad()
	if len(links) != len(want.links) {
		return fmt.Sprintf("%d loaded links, reference %d", len(links), len(want.links))
	}
	for k, w := range want.links {
		if g, ok := links[k]; !ok || !eq(g, w) {
			return fmt.Sprintf("LinkLoad[%s] = %v, reference %v", k, g, w)
		}
	}
	return ""
}

// refCheck counts the comparisons a test made and the hazards they
// carried: agreeing only on clean forwarding would prove little.
type refCheck struct {
	t                    *testing.T
	samples, lossy, fail int
}

// watch compares the propagator against the reference after every engine
// event on n, and once more when the returned function is called.
func (c *refCheck) watch(name string, n *fabric.Network, demands []traffic.Demand) func() {
	pr := &traffic.Propagator{Net: n}
	check := func(int64) {
		got := pr.Run(demands)
		c.samples++
		if got.Blackholed > 0 || got.Looped > 0 {
			c.lossy++
		}
		if diff := sameBits(n, got, reference(n, demands, 0)); diff != "" && c.fail < 10 {
			c.fail++
			c.t.Errorf("%s at %dns: %s", name, n.Now(), diff)
		}
	}
	n.OnEvent(check)
	return func() { check(0) }
}

func restoreFork(t *testing.T, snap *snapshot.Snapshot) *fabric.Network {
	t.Helper()
	n, err := snap.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n
}

// deploy pushes one schedule step through the rollout path, settling per
// device as the planner does.
func deploy(t *testing.T, n *fabric.Network, p planner.Params, st planner.Step) {
	t.Helper()
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { n.Converge() },
	}
	err := ctl.ExecuteCtx(context.Background(), controller.OrchestratedChange{
		Name: "reference step",
		Rollout: controller.Rollout{
			Intent:          st.Intent(p.Intent),
			OriginAltitude:  p.OriginAltitude,
			Schedule:        [][]topo.DeviceID{st.Devices},
			SettlePerDevice: true,
		},
	})
	if err != nil {
		t.Fatalf("step %s: %v", st, err)
	}
}

// drainAll is the planner's terminal migration body: staggered drains.
func drainAll(n *fabric.Network, p planner.Params) {
	for i, dev := range p.Drain {
		d := dev
		n.After(time.Duration(int64(i)*p.DrainStaggerNs), func() { n.SetDrained(d, true) })
	}
	n.Converge()
}

// phase runs body on a fork of snap under the comparison and returns the
// settled state.
func (c *refCheck) phase(name string, snap *snapshot.Snapshot, p planner.Params, body func(n *fabric.Network)) *snapshot.Snapshot {
	n := restoreFork(c.t, snap)
	settled := c.watch(name, n, p.Demands)
	body(n)
	settled()
	next, err := snapshot.Capture(n)
	if err != nil {
		c.t.Fatalf("%s: capture: %v", name, err)
	}
	return next
}

// campaign chains a schedule's steps and the terminal drain; arm, when set,
// disturbs step 1's fork before it runs.
func (c *refCheck) campaign(name string, snap *snapshot.Snapshot, p planner.Params, sched planner.Schedule, arm func(n *fabric.Network)) {
	state := snap
	for i, st := range sched.Steps {
		i, st := i, st
		state = c.phase(fmt.Sprintf("%s step %d", name, i), state, p, func(n *fabric.Network) {
			if arm != nil && i == 1 {
				arm(n)
			}
			deploy(c.t, n, p, st)
		})
	}
	c.phase(name+" drain", state, p, func(n *fabric.Network) { drainAll(n, p) })
}

func (c *refCheck) done() {
	c.t.Helper()
	if c.samples == 0 || c.lossy == 0 {
		c.t.Errorf("%d comparisons, %d with loss: the matrix exercised nothing", c.samples, c.lossy)
	}
	c.t.Logf("%d comparisons, %d with black-holed or looped volume", c.samples, c.lossy)
}

func TestPropagatorMatchesReference(t *testing.T) {
	t.Run("planner", func(t *testing.T) {
		c := &refCheck{t: t}
		for _, scenario := range planner.ScenarioNames() {
			for seed := int64(1); seed <= refSeeds; seed++ {
				snap, p, err := planner.ScenarioSetup(scenario, seed)
				if err != nil {
					t.Fatalf("%s/%d: %v", scenario, seed, err)
				}
				name := fmt.Sprintf("%s/%d", scenario, seed)
				tp, err := snap.Topology()
				if err != nil {
					t.Fatal(err)
				}
				ctl := &controller.Controller{Topo: tp}
				sched := planner.FromWaves(ctl.Waves(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude}))
				rev := sched.Clone()
				for i, j := 0, len(rev.Steps)-1; i < j; i, j = i+1, j-1 {
					rev.Steps[i], rev.Steps[j] = rev.Steps[j], rev.Steps[i]
				}
				c.campaign(name+" clean", snap, p, sched, nil)
				c.campaign(name+" reversed", snap, p, rev, nil)
				c.phase(name+" unprotected drain", snap, p, func(n *fabric.Network) { drainAll(n, p) })
				plan := chaos.NewPlan(restoreFork(t, snap), seed, chaos.PlanOptions{Count: 3, Span: 10 * time.Millisecond})
				c.campaign(name+" chaos", snap, p, sched, func(n *fabric.Network) {
					chaos.NewInjector(n, plan, 0).Arm()
				})
			}
		}
		c.done()
	})
	t.Run("chaos", func(t *testing.T) {
		c := &refCheck{t: t}
		for _, scenario := range chaos.Scenarios() {
			for seed := int64(1); seed <= refSeeds; seed++ {
				base, err := chaos.BaseNet(scenario, seed)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := snapshot.Capture(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, arm := range []chaos.Arm{chaos.ArmNative, chaos.ArmRPA} {
					n := restoreFork(t, snap)
					rig, err := migrate.RigOn(scenario, n)
					if err != nil {
						t.Fatal(err)
					}
					plan := chaos.NewPlan(n, seed, chaos.PlanOptions{Span: rig.Span + 30*time.Millisecond})
					inj := chaos.NewInjector(n, plan, 0)
					settled := c.watch(fmt.Sprintf("%s/%s/%d", scenario, arm, seed), n, rig.Demands)
					if arm == chaos.ArmRPA {
						push := inj.WrapDeploy(func(dev topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(dev, cfg) })
						if err := rig.DeployRPA(push); err != nil {
							t.Fatal(err)
						}
						n.Converge()
					}
					inj.Arm()
					rig.Migration()
					n.Converge()
					settled()
				}
			}
		}
		c.done()
	})
}

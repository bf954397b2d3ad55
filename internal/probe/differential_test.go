package probe_test

// The sampler differential: the gated Sampler (the only policy in the tree)
// against the every-event oracle kept in export_test.go, on the phases the
// probe's consumers actually run — planner schedule steps and the terminal
// drain, guard waves (clean, violating, chaos-instrumented), the served
// what-if qualification mixes, and both chaos rigs. The contract: identical
// Metrics, identical transient violations (invariant, At, detail), identical
// alert tags, identical chaos transition logs — and strictly fewer gated
// samples than engine events, so the gate is shown to engage. CI runs this
// under -race -count=3.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"centralium/internal/chaos"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/probe"
	"centralium/internal/qualify"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

const diffSeeds = 10

// tally accumulates, over every gated run of a test, how many engine events
// ran, how many of them the gate let sample, and how many hazards (alerts,
// black-hole time, violations, transitions) the compared outputs carried —
// agreeing on nothing would prove nothing.
type tally struct{ events, samples, hazards int64 }

// count attaches a second gated sampler with no workload: same policy, same
// tap stream, so it samples exactly when the sampler under test does.
func (c *tally) count(n *fabric.Network) {
	probe.Attach(n, nil, func(int64, *traffic.Result) { c.samples++ })
}

func (c *tally) engaged(t *testing.T) {
	t.Helper()
	if c.samples == 0 || c.samples >= c.events {
		t.Errorf("gate did not engage: %d samples over %d events", c.samples, c.events)
	}
	if c.hazards == 0 {
		t.Errorf("no hazard in any compared output")
	}
	t.Logf("%d gated samples over %d events, %d hazards compared", c.samples, c.events, c.hazards)
}

func restore(t *testing.T, snap *snapshot.Snapshot) *fabric.Network {
	t.Helper()
	n, err := snap.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n
}

func workloadOf(p planner.Params) probe.Workload {
	return probe.Workload{
		Demands:      p.Demands,
		Watch:        p.Watch,
		FairShare:    1 / float64(len(p.Watch)),
		BlackholeEps: 0.001,
	}
}

// baseline is the scenario's §5.3.2 schedule, one step per wave.
func baseline(t *testing.T, snap *snapshot.Snapshot, p planner.Params) planner.Schedule {
	t.Helper()
	tp, err := snap.Topology()
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	ctl := &controller.Controller{Topo: tp}
	return planner.FromWaves(ctl.Waves(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude}))
}

func reversed(s planner.Schedule) planner.Schedule {
	out := s.Clone()
	for i, j := 0, len(out.Steps)-1; i < j; i, j = i+1, j-1 {
		out.Steps[i], out.Steps[j] = out.Steps[j], out.Steps[i]
	}
	return out
}

// deployStep pushes one schedule step through the real rollout path, as
// planner.ExecuteSteps does.
func deployStep(t *testing.T, n *fabric.Network, p planner.Params, st planner.Step) int64 {
	t.Helper()
	events := int64(0)
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { events += n.Converge() },
	}
	err := ctl.ExecuteCtx(context.Background(), controller.OrchestratedChange{
		Name: "differential step",
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
	return events
}

// drain is the planner's terminal migration body: the scenario's staggered
// drains.
func drain(n *fabric.Network, p planner.Params) int64 {
	if len(p.Drain) == 0 {
		return 0
	}
	for i, dev := range p.Drain {
		d := dev
		n.After(time.Duration(int64(i)*p.DrainStaggerNs), func() { n.SetDrained(d, true) })
	}
	return n.Converge()
}

// phase measures body on two forks of snap — gated and oracle — requires
// identical Metrics, and returns the gated fork's settled state.
func phase(t *testing.T, c *tally, name string, snap *snapshot.Snapshot, w probe.Workload, body func(n *fabric.Network) int64) *snapshot.Snapshot {
	t.Helper()
	gn, on := restore(t, snap), restore(t, snap)
	gated := probe.NewTransient(gn, w)
	c.count(gn)
	oracle := probe.NewTransientEveryEvent(on, w)
	gm := gated.Finish(body(gn))
	om := oracle.Finish(body(on))
	c.events += gm.Events
	c.hazards += int64(gm.Alerts)
	if gm.BlackholeNs > 0 {
		c.hazards++
	}
	if !reflect.DeepEqual(gm, om) {
		t.Errorf("%s: metrics diverge\ngated:  %+v\noracle: %+v", name, gm, om)
	}
	next, err := snapshot.Capture(gn)
	if err != nil {
		t.Fatalf("%s: capture: %v", name, err)
	}
	return next
}

// campaign chains a schedule's steps and the terminal drain through phase.
// arm, when set, disturbs the fork of step 1 before it runs (the guard
// conformance suite's injection point).
func campaign(t *testing.T, c *tally, name string, snap *snapshot.Snapshot, p planner.Params, sched planner.Schedule, arm func(n *fabric.Network)) {
	t.Helper()
	w := workloadOf(p)
	state := snap
	for i, st := range sched.Steps {
		i, st := i, st
		state = phase(t, c, fmt.Sprintf("%s step %d", name, i), state, w, func(n *fabric.Network) int64 {
			if arm != nil && i == 1 {
				arm(n)
			}
			return deployStep(t, n, p, st)
		})
	}
	phase(t, c, name+" drain", state, w, func(n *fabric.Network) int64 { return drain(n, p) })
}

// TestSamplerDifferential is the three consumer families, one subtest each.
func TestSamplerDifferential(t *testing.T) {
	t.Run("transient", transientDifferential)
	t.Run("qualify", qualifyDifferential)
	t.Run("chaos", chaosDifferential)
}

// transientDifferential covers the Transient consumers: for every planner
// scenario and seed, the clean bottom-up campaign (planner steps + drain,
// guard clean waves), the violating ones (the reversed schedule, and the
// drain on the unprotected base), and the chaos-instrumented one.
func transientDifferential(t *testing.T) {
	var c tally
	for _, scenario := range planner.ScenarioNames() {
		for seed := int64(1); seed <= diffSeeds; seed++ {
			snap, p, err := planner.ScenarioSetup(scenario, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", scenario, seed, err)
			}
			name := fmt.Sprintf("%s/%d", scenario, seed)
			sched := baseline(t, snap, p)
			campaign(t, &c, name+" clean", snap, p, sched, nil)
			campaign(t, &c, name+" reversed", snap, p, reversed(sched), nil)
			phase(t, &c, name+" unprotected drain", snap, workloadOf(p), func(n *fabric.Network) int64 { return drain(n, p) })

			plan := chaos.NewPlan(restore(t, snap), seed, chaos.PlanOptions{Count: 3, Span: 10 * time.Millisecond})
			campaign(t, &c, name+" chaos", snap, p, sched, func(n *fabric.Network) {
				chaos.NewInjector(n, plan, 0).Arm()
			})
		}
	}
	c.engaged(t)
}

// transientViolations is qualify.Run's transient bookkeeping, re-enacted
// under the every-event oracle: first occurrence per invariant.
func transientViolations(t *testing.T, spec qualify.Spec) ([]qualify.Violation, int64) {
	t.Helper()
	n := spec.Net
	var out []qualify.Violation
	seen := map[string]bool{}
	probe.AttachEveryEvent(n, spec.Workload, func(_ int64, res *traffic.Result) {
		for _, inv := range spec.Invariants {
			if !inv.Transient || seen[inv.Name] {
				continue
			}
			if detail := inv.Check(n, res); detail != "" {
				seen[inv.Name] = true
				out = append(out, qualify.Violation{Invariant: inv.Name, Transient: true, At: time.Duration(n.Now()), Detail: detail})
			}
		}
	})
	events := int64(0)
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { events += n.Converge() },
	}
	err := ctl.Run(controller.Rollout{
		Intent: spec.Intent, OriginAltitude: spec.OriginAltitude, SettlePerDevice: true, Schedule: spec.Schedule,
	})
	if err != nil {
		t.Fatalf("oracle rollout: %v", err)
	}
	return out, events + n.Converge()
}

// qualifyDifferential runs the served what-if mixes — derived, reversed
// and all-at-once schedules under a strict funnel bound —
// through the real qualify.Run and through the oracle re-enactment.
func qualifyDifferential(t *testing.T) {
	var c tally
	for _, scenario := range planner.ScenarioNames() {
		for seed := int64(1); seed <= diffSeeds; seed++ {
			snap, p, err := planner.ScenarioSetup(scenario, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", scenario, seed, err)
			}
			sched := baseline(t, snap, p)
			mixes := []struct {
				name  string
				waves [][]topo.DeviceID
			}{
				{"derived", nil},
				{"reversed", reversed(sched).Waves()},
				{"all-at-once", [][]topo.DeviceID{sched.Devices()}},
			}
			for _, mix := range mixes {
				spec := qualify.Spec{
					Name:           mix.name,
					Intent:         p.Intent,
					OriginAltitude: p.OriginAltitude,
					Workload:       p.Demands,
					Invariants:     []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops(), qualify.FunnelBound(p.Watch, 0.55)},
					Schedule:       mix.waves,
				}
				spec.Net = restore(t, snap)
				c.count(spec.Net)
				rep, err := qualify.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				c.events += rep.Events
				var got []qualify.Violation
				for _, v := range rep.Violations {
					if v.Transient {
						got = append(got, v)
					}
				}
				c.hazards += int64(len(got))
				spec.Net = restore(t, snap)
				want, events := transientViolations(t, spec)
				if rep.Events != events || !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%d %s: qualification diverges (events %d vs %d)\ngated:  %+v\noracle: %+v",
						scenario, seed, mix.name, rep.Events, events, got, want)
				}
			}
		}
	}
	c.engaged(t)
}

// chaosTransitions re-enacts chaos.Run's monitored migration on a fork and
// returns the monitor's onset/clear log; attach wires the monitor's Sample
// into a sampler of either policy.
func chaosTransitions(t *testing.T, n *fabric.Network, scenario string, arm chaos.Arm, seed int64, attach func(rig *migrate.ChaosRig, mon *chaos.Monitor)) ([]string, int64) {
	t.Helper()
	rig, err := migrate.RigOn(scenario, n)
	if err != nil {
		t.Fatal(err)
	}
	plan := chaos.NewPlan(n, seed, chaos.PlanOptions{Span: rig.Span + 30*time.Millisecond})
	inj := chaos.NewInjector(n, plan, 0)
	if arm == chaos.ArmRPA {
		push := inj.WrapDeploy(func(dev topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(dev, cfg) })
		if err := rig.DeployRPA(push); err != nil {
			t.Fatal(err)
		}
		n.Converge()
	}
	mon := chaos.NewMonitor(chaos.CheckConfig{Net: n, Demands: rig.Demands, Prefixes: rig.Prefixes, Protected: rig.Protected}, inj)
	attach(rig, mon)
	inj.Arm()
	rig.Migration()
	events := n.Converge()
	return mon.Transitions(), events
}

// chaosDifferential: both chaos rigs, both arms — the monitor's
// transition log under the gated sampler equals the every-event oracle's.
func chaosDifferential(t *testing.T) {
	var c tally
	for _, scenario := range chaos.Scenarios() {
		for seed := int64(1); seed <= diffSeeds; seed++ {
			base, err := chaos.BaseNet(scenario, seed)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := snapshot.Capture(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, arm := range []chaos.Arm{chaos.ArmNative, chaos.ArmRPA} {
				gn := restore(t, snap)
				got, events := chaosTransitions(t, gn, scenario, arm, seed, func(_ *migrate.ChaosRig, mon *chaos.Monitor) {
					mon.Attach()
					c.count(gn)
				})
				c.events += events
				c.hazards += int64(len(got))
				on := restore(t, snap)
				want, _ := chaosTransitions(t, on, scenario, arm, seed, func(rig *migrate.ChaosRig, mon *chaos.Monitor) {
					probe.AttachEveryEvent(on, rig.Demands, mon.Sample)
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%d: transition logs diverge\ngated:  %q\noracle: %q", scenario, arm, seed, got, want)
				}
			}
		}
	}
	c.engaged(t)
}

package guard

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"centralium/internal/chaos"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// The chaos-guard conformance suite: across conformanceSeeds seeds and
// two fault-plan families injected mid-campaign, every guarded run must
// terminate completed-safe or rolled-back-to-last-good — never in a
// violated terminal state — with the terminal fleet passing the full
// quiescent invariant sweep, and with byte-identical guard decision logs
// run to run.
const conformanceSeeds = 20

// faultPlan is one conformance arm: a named way of disturbing a
// campaign. Instrument arms the faults on the attempt's fork.
type faultPlan struct {
	name string
	// instrument builds the campaign's Instrument hook for a seed. The
	// hook must be a pure function of (wave, attempt) so a resumed run
	// replays it identically.
	instrument func(t *testing.T, seed int64, base *snapshot.Snapshot) func(n *fabric.Network, wave, attempt int)
}

// chaosPlanArm draws a seeded chaos fault plan and injects it during
// wave 1's first attempt only: transient turbulence the retry loop must
// absorb. Depending on what the seed drew (a delay-only plan never drops
// a session), the campaign either completes directly or rolls back once
// and completes on the clean retry.
func chaosPlanArm(t *testing.T, seed int64, base *snapshot.Snapshot) func(n *fabric.Network, wave, attempt int) {
	t.Helper()
	// Derive the plan against the base fleet: deterministic in the seed,
	// independent of campaign progress.
	ref, err := base.Restore()
	if err != nil {
		t.Fatalf("restore for plan: %v", err)
	}
	plan := chaos.NewPlan(ref, seed, chaos.PlanOptions{Count: 3, Span: 10 * time.Millisecond})
	return func(n *fabric.Network, wave, attempt int) {
		if wave == 1 && attempt == 0 {
			chaos.NewInjector(n, plan, 0).Arm()
		}
	}
}

// stormArm deterministically restarts a spine on every attempt of wave
// 1: the violation persists through the whole retry budget, so the
// campaign must quarantine and abort, rolled back to last-good.
func stormArm(t *testing.T, seed int64, base *snapshot.Snapshot) func(n *fabric.Network, wave, attempt int) {
	return func(n *fabric.Network, wave, attempt int) {
		if wave == 1 {
			n.After(time.Millisecond, func() {
				n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false)
			})
		}
	}
}

func TestChaosGuardConformance(t *testing.T) {
	plans := []faultPlan{
		{name: "chaos", instrument: chaosPlanArm},
		{name: "storm", instrument: stormArm},
	}
	var (
		completed, aborted, rollbacks int
		stormAborts                   int
	)
	for seed := int64(1); seed <= conformanceSeeds; seed++ {
		snap, p, err := planner.ScenarioSetup("fig10", seed)
		if err != nil {
			t.Fatalf("seed %d: setup: %v", seed, err)
		}
		for _, plan := range plans {
			var logs [2]string
			var states [2]State
			var fps [2]string
			for i := range logs {
				c := FromParams(p)
				c.Name = "conformance"
				c.Instrument = plan.instrument(t, seed, snap)
				res, err := Run(context.Background(), snap, c)
				if err != nil {
					t.Fatalf("seed %d plan %s run %d: %v", seed, plan.name, i, err)
				}
				// Terminal-state invariant: completed-safe or rolled back
				// to last-good — never anything else.
				if res.State != StateCompleted && res.State != StateAborted {
					t.Fatalf("seed %d plan %s: terminal state %s\nlog:\n%s", seed, plan.name, res.State, res.Log)
				}
				// The terminal fleet passes the full quiescent sweep: no
				// loops, no black holes, sane weights.
				if sweep := chaos.CheckQuiescent(chaos.CheckConfig{
					Net:      res.Net,
					Demands:  c.Workload.Demands,
					Prefixes: []netip.Prefix{migrate.DefaultRoute},
				}); len(sweep) > 0 {
					t.Fatalf("seed %d plan %s: terminal sweep dirty: %v\nlog:\n%s", seed, plan.name, sweep, res.Log)
				}
				requireConfigsUnedited(t, res)
				logs[i] = res.Log
				states[i] = res.State
				fp, err := res.Snapshot.Fingerprint()
				if err != nil {
					t.Fatalf("seed %d plan %s: fingerprint: %v", seed, plan.name, err)
				}
				fps[i] = fp
				if i == 1 {
					continue
				}
				switch res.State {
				case StateCompleted:
					completed++
				case StateAborted:
					aborted++
					if plan.name == "storm" {
						stormAborts++
					}
				}
				rollbacks += res.Rollbacks
			}
			if logs[0] != logs[1] {
				t.Fatalf("seed %d plan %s: decision logs diverge run to run\n--- first ---\n%s\n--- second ---\n%s",
					seed, plan.name, logs[0], logs[1])
			}
			if states[0] != states[1] || fps[0] != fps[1] {
				t.Fatalf("seed %d plan %s: terminal state diverges run to run: %s/%s vs %s/%s",
					seed, plan.name, states[0], short(fps[0]), states[1], short(fps[1]))
			}
		}
	}
	// Vacuousness guards: the sweep must exercise both terminal classes
	// and the remediation machinery, or the invariant proves nothing.
	if stormAborts != conformanceSeeds {
		t.Fatalf("storm plan aborted %d/%d campaigns; the quarantine path is undertested", stormAborts, conformanceSeeds)
	}
	if completed == 0 {
		t.Fatalf("no campaign completed; the clean path is untested")
	}
	if rollbacks == 0 {
		t.Fatalf("no campaign rolled back; the remediation path is untested")
	}
	t.Logf("conformance: %d completed, %d aborted, %d rollbacks across %d seeds x %d plans",
		completed, aborted, rollbacks, conformanceSeeds, len(plans))
}

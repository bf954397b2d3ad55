package guard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"centralium/internal/planner"
)

// TestPlanMatchesExecute is the plan ≡ execute contract: a guarded campaign
// measures each wave exactly as the planner scored the same step. For every
// planner scenario and seeds 1–10 it plans, then runs both the §5.3.2
// baseline and the winner chaos-free under an envelope that cannot bind, and
// requires each wave's attempt-0 metrics to equal the planner's phase for
// that step, field for field. CI runs it under -race -count=3.
func TestPlanMatchesExecute(t *testing.T) {
	waves := 0
	for _, scenario := range planner.ScenarioNames() {
		for seed := int64(1); seed <= 10; seed++ {
			snap, p, err := planner.ScenarioSetup(scenario, seed)
			if err != nil {
				t.Fatalf("%s/%d: setup: %v", scenario, seed, err)
			}
			plan, err := planner.Plan(snap, p)
			if err != nil {
				t.Fatalf("%s/%d: plan: %v", scenario, seed, err)
			}
			for _, sched := range []struct {
				name string
				s    planner.Schedule
			}{{"baseline", plan.Baseline}, {"winner", plan.Winner}} {
				name := fmt.Sprintf("%s/%d %s", scenario, seed, sched.name)
				rep, err := planner.ScoreSchedule(snap, p, sched.s)
				if err != nil {
					t.Fatalf("%s: score: %v", name, err)
				}
				got := make(map[int]WaveMetrics)
				c := FromParams(p)
				c.Name = "plan-matches-execute"
				c.Schedule = sched.s
				c.Envelope = Envelope{MaxChurn: math.MaxInt64}
				c.testHookMetrics = func(wave, attempt int, m WaveMetrics) {
					if attempt == 0 {
						got[wave] = m
					}
				}
				res, err := Run(context.Background(), snap, c)
				if err != nil {
					t.Fatalf("%s: run: %v", name, err)
				}
				if res.State != StateCompleted || res.Retries != 0 {
					t.Fatalf("%s: state %s after %d retries\nlog:\n%s", name, res.State, res.Retries, res.Log)
				}
				for i := range sched.s.Steps {
					want, m := rep.Phases[i], got[i]
					if m.BlackholeNs != want.BlackholeNs || m.PeakShare != want.PeakShare ||
						m.ConvergeNs != want.ConvergeNs || m.PeakNHG != want.PeakNHG ||
						m.Churn != want.Churn || m.Alerts != want.Alerts || m.Events != want.Events {
						t.Errorf("%s wave %d [%s]: guard measured %s events=%d, planner scored %+v",
							name, i, want.Label, m, m.Events, want)
					}
					waves++
				}
			}
		}
	}
	t.Logf("%d waves compared", waves)
}

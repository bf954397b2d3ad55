package experiments

import (
	"fmt"
	"strings"
	"testing"

	"centralium/internal/chaos"
	"centralium/internal/migrate"
)

// TestWarmStartMatchesCold is the forked sweeps' correctness contract:
// every helper that measures on forks of one captured base produces what
// the cold path — one freshly built base per measurement — produces.
// Sweeps always fork now, so the cold side is called directly: the
// scenario runners that build their own base (what the batch helpers'
// cold branch used to call), and sweepWhatIf's reference arm.
func TestWarmStartMatchesCold(t *testing.T) {
	const seed = 7
	t.Run("sweep-mnh", func(t *testing.T) {
		var ps []migrate.Scenario2Params
		for _, pct := range []float64{25, 50, 75, 100} {
			ps = append(ps, migrate.Scenario2Params{Seed: seed, UseRPA: true, KeepFibWarm: true, MinNextHopPercent: pct})
		}
		for i, warm := range scenario2Batch(ps) {
			if cold := migrate.RunScenario2(ps[i]); warm != cold {
				t.Errorf("threshold %v: forked %+v, cold %+v", ps[i].MinNextHopPercent, warm, cold)
			}
		}
	})
	t.Run("sweep-whatif", func(t *testing.T) {
		if cold, warm := sweepWhatIf(seed, true), SweepWhatIf(seed); cold != warm {
			t.Errorf("forked sweep-whatif diverged from cold run\ncold:\n%s\nwarm:\n%s", cold, warm)
		}
	})
	t.Run("chaos", func(t *testing.T) {
		arms := []chaos.Arm{chaos.ArmNative, chaos.ArmRPA}
		for _, sc := range chaos.Scenarios() {
			warm, err := chaosBatch(sc, seed, arms)
			if err != nil {
				t.Fatalf("chaos batch %s: %v", sc, err)
			}
			for i, arm := range arms {
				cold, err := chaos.Run(chaos.RunParams{Scenario: sc, Arm: arm, Seed: seed})
				if err != nil {
					t.Fatalf("chaos run %s/%s: %v", sc, arm, err)
				}
				if fmt.Sprintf("%+v", warm[i]) != fmt.Sprintf("%+v", cold) {
					t.Errorf("%s/%s: forked run diverged from cold run\ncold %+v\nwarm %+v", sc, arm, cold, warm[i])
				}
			}
		}
	})
}

// TestWarmStartScenario3Batch covers the Figure 5 batch helper on a single
// cheap point rather than the full sweep.
func TestWarmStartScenario3Batch(t *testing.T) {
	ps := []migrate.Scenario3Params{
		{Seed: 5, Prefixes: 32},
		{Seed: 5, Prefixes: 32, UseRPA: true},
	}
	for i, warm := range scenario3Batch(ps) {
		if cold := migrate.RunScenario3(ps[i]); warm != cold {
			t.Errorf("scenario3 set %d: forked %+v, cold %+v", i, warm, cold)
		}
	}
}

// TestSweepWhatIfContent sanity-checks the fork-based sweep's table shape.
func TestSweepWhatIfContent(t *testing.T) {
	out := SweepWhatIf(3)
	if !strings.Contains(out, "drained") {
		t.Errorf("sweep-whatif output incomplete:\n%s", out)
	}
	ssw, fadu := 0, 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ssw") {
			ssw++
		}
		if strings.HasPrefix(line, "fadu") {
			fadu++
		}
	}
	if ssw < 2 || fadu < 2 {
		t.Errorf("expected one row per SSW and per FADU, got ssw=%d fadu=%d:\n%s", ssw, fadu, out)
	}
}

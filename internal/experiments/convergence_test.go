package experiments

import "testing"

func TestConvergenceScalesShape(t *testing.T) {
	scales := ConvergenceScales()
	if len(scales) != 3 {
		t.Fatalf("got %d scales, want 3", len(scales))
	}
	for i, want := range []string{"small", "medium", "1kdevice"} {
		if scales[i].Name != want {
			t.Errorf("scale %d = %q, want %q", i, scales[i].Name, want)
		}
	}
	if scales[2].RackRSWsPerPod != 1 {
		t.Errorf("1kdevice RackRSWsPerPod = %d, want 1 (event-budget trim)", scales[2].RackRSWsPerPod)
	}
}

// TestRunConvergenceDifferential is the experiments-layer equivalence
// check: the scale scenario's deterministic columns (events, virtual time,
// prefixes) must be identical with the advertise memo off (the oracle) and
// on, and the memo must actually hit.
func TestRunConvergenceDifferential(t *testing.T) {
	sc := ConvergenceScales()[0] // small: seconds, not minutes
	full := RunConvergenceMode(sc, 42, true)
	incr := RunConvergenceMode(sc, 42, false)
	if full.Events == 0 || full.Devices == 0 {
		t.Fatalf("degenerate oracle run: %+v", full)
	}
	if !full.FullRecompute || incr.FullRecompute {
		t.Errorf("modes not pinned: oracle FullRecompute=%v, incremental FullRecompute=%v", full.FullRecompute, incr.FullRecompute)
	}
	if full.AdvMemoHits != 0 {
		t.Errorf("oracle run reports advertise-memo hits: %+v", full)
	}
	if incr.AdvMemoHits == 0 {
		t.Errorf("memo run never hit the advertise memo: %+v", incr)
	}
	if incr.Events != full.Events || incr.Virtual != full.Virtual || incr.Prefixes != full.Prefixes {
		t.Errorf("modes diverged: oracle %+v, incremental %+v", full, incr)
	}
}

// TestExperimentsDifferential renders every deterministic-output
// experiment twice in one process and asserts the tables are
// byte-identical: no process-global state (version counters, caches) may
// leak into a table. Experiments whose output includes wall-clock or
// process-level measurements (sweep-scale, fig11, fig12) are exercised by
// TestRunConvergenceDifferential on their deterministic columns instead;
// chaos re-runs its own seeds in internal/chaos.
func TestExperimentsDifferential(t *testing.T) {
	ids := []string{"fig2", "fig4", "fig5", "fig9", "fig10", "fig13", "sweep-fig4", "sweep-fig5", "sweep-mnh"}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			first, err := Run(id, 42)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := Run(id, 42)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if first != second {
				t.Errorf("%s output diverged between two runs of one seed:\nfirst:\n%s\nsecond:\n%s", id, first, second)
			}
		})
	}
}

package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// The bench-regression guard, gated behind CENTRALIUM_BENCH_GUARD=1
// because it converges the 1k-device fabric. It is a table of (metric,
// committed value, tolerance), checked against the committed snapshots:
//
//   - Determinism anchors, zero tolerance: event count and virtual time of
//     the 1k-device converge and of the medium converge, with the
//     advertise memo on and off (results/BENCH_history.jsonl). Drift means
//     the memo and the oracle are no longer byte-identical — a correctness
//     failure, not a performance one.
//   - Work avoidance, zero tolerance: the advertise memo's hit count at
//     medium. It is what the memo buys over the oracle, and it is exact, so
//     it is guarded as a count rather than through a wall-clock ratio.
//   - Allocation budget: allocs/event at medium within the 2.0 budget
//     (+15%), the engine hot path's contract (DESIGN.md, "Engine data
//     layout and the immutability contract").
//   - Restore budget: allocations of one restore of the converged medium
//     fabric within +15% of the committed count (the `fork-sharing` row). A
//     restore adopts the snapshot's RIB columns instead of rebuilding them;
//     a change that re-grows it to per-route work fails here.
//   - Journaled bytes, zero tolerance: what the daemon journals for the
//     fig10 beam-3 plan of bench/'s plan-search — each level's bare
//     manifest plus the bytes of the states the plan Puts for the first
//     time, summed over its levels (the `plan-states-by-reference` row). A
//     state journaled twice, a manifest that carries states, or a state
//     encoding that grows moves this count.
//   - Capture work, zero tolerance: the speakers the decommission scenario's
//     baseline schedule dirties, summed over its steps (the `live-states`
//     row) — what a capture against the parent state re-exports and
//     re-encodes; everything else is copied. A mutator that starts touching
//     speakers it does not change, or an engine change that spreads a step's
//     updates wider, moves it.
//
// There is no wall-clock floor: with the memo off the oracle converges
// medium within ~1.2x of the memo run — too close to hold on a shared CI
// runner — so the committed absolute rows above stand in for a ratio and
// the measured walls are logged, not judged.

type benchReport struct {
	ID   string `json:"id"`
	Rows []struct {
		Label string `json:"label"`
		// Values are numbers, but a row may also record a flag.
		Values map[string]any `json:"values"`
	} `json:"rows"`
}

// lastHistoryRow returns the values of the most recently appended row with
// the given label among the reports with the given id in the append-only
// history.
func lastHistoryRow(t *testing.T, path, id, label string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read bench history: %v", err)
	}
	defer f.Close()
	var last map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r benchReport
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if r.ID != id {
			continue
		}
		for _, row := range r.Rows {
			if row.Label == label {
				last = make(map[string]float64)
				for k, v := range row.Values {
					if f, ok := v.(float64); ok {
						last[k] = f
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if last == nil {
		t.Fatalf("%s has no %q row labelled %q", path, id, label)
	}
	return last
}

// allocsPerEventBudget is the engine hot path's allocation budget at the
// medium scale; the guard allows 15% over it. It is the measured 0.599
// rounded up to 0.05, so the ceiling (0.69) sits below the 0.715 this measure
// read while every advertise call allocated its content, stored or not.
const allocsPerEventBudget = 0.60

// bytesPerEventBudget is the bytes the engine hot path allocates per event
// at the medium scale; the guard allows 15% over it. It is the measured 187.4
// rounded up to 10, so the ceiling (218.5) sits below the 237.8 this measure
// read while an Adj-RIB-In entry was a whole core.RouteAttrs of 144 bytes.
const bytesPerEventBudget = 190

// mediumRestoreAllocs converges the scale point as RunConvergenceMode does,
// captures it, and counts the allocations of one restore.
func mediumRestoreAllocs(t *testing.T, sc ConvergenceScale) float64 {
	t.Helper()
	tp := topo.BuildFabric(sc.Params)
	n := fabric.New(tp, fabric.Options{Seed: 42})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, rackPrefix(rsw), nil, 0)
	}
	n.Converge()
	snap, err := snapshot.Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := snap.Restore(); err != nil {
			t.Fatal(err)
		}
	})
}

// firstPuts is an in-memory planner.ObjectStore that sums the bytes of the
// states it is handed for the first time.
type firstPuts struct {
	objs  map[string][]byte
	bytes int
}

func (f *firstPuts) Put(key string, data []byte) error {
	if _, ok := f.objs[key]; !ok {
		f.objs[key] = data
		f.bytes += len(data)
	}
	return nil
}

func (f *firstPuts) Get(key string) ([]byte, bool, error) {
	data, ok := f.objs[key]
	return data, ok, nil
}

// fig10JournaledBytes runs the fig10 plan of bench/'s plan-search at beam 3
// the way the daemon does — its states in an object store — and sums the
// manifests its journal is handed and the states the store gets first.
func fig10JournaledBytes(t *testing.T) float64 {
	t.Helper()
	snap, p, err := planner.ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Beam, p.RandomCands = 3, 2
	objs := &firstPuts{objs: make(map[string][]byte)}
	s, err := planner.NewSearchWith(snap, p, objs)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	journal := planner.JournalFunc(func(_ int, cp []byte) error { sum += len(cp); return nil })
	if _, err := s.Drive(context.Background(), 0, journal); err != nil {
		t.Fatal(err)
	}
	return float64(sum + objs.bytes)
}

// decommissionDirtySpeakers walks the decommission scenario's §5.3.2 baseline
// the way the search's evaluator does — fork the parent state, push one step,
// capture against the parent — and sums the speakers each step left dirty.
func decommissionDirtySpeakers(t *testing.T) float64 {
	t.Helper()
	snap, p, err := planner.ScenarioSetup("decommission", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := planner.NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := planner.NewExecutor(p.Intent, nil, p.Workload(), p.OriginAltitude)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := snap.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	dirty := 0
	for _, st := range s.BaselineSchedule().Steps {
		n, err := parent.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Execute(context.Background(), n, []planner.Step{st}); err != nil {
			t.Fatal(err)
		}
		for _, d := range n.Topo.Devices() {
			if n.Speaker(d.ID).Dirty() {
				dirty++
			}
		}
		if parent, err = snapshot.CaptureFrom(parent, n); err != nil {
			t.Fatal(err)
		}
	}
	return float64(dirty)
}

func TestBenchGuard(t *testing.T) {
	if os.Getenv("CENTRALIUM_BENCH_GUARD") != "1" {
		t.Skip("set CENTRALIUM_BENCH_GUARD=1 to run the bench-regression guard")
	}
	scales := ConvergenceScales()
	const history = "../../results/BENCH_history.jsonl"
	large := lastHistoryRow(t, history, "engine-convergence", "scale=1kdevice mode=incremental")
	medium := lastHistoryRow(t, history, "engine-convergence", "scale=medium mode=incremental")
	if large["events"] == 0 || medium["events"] == 0 {
		t.Fatal("committed snapshot has no event count")
	}

	big := RunConvergenceMode(scales[2], 42, false)
	full := RunConvergenceMode(scales[1], 42, true)
	incr := RunConvergenceMode(scales[1], 42, false)
	t.Logf("medium-scale wall: full %v, incremental %v (%.2fx); incremental %.2f allocs/event and %.0f B/event, oracle %.2f and %.0f",
		full.Wall, incr.Wall, float64(full.Wall)/float64(incr.Wall),
		float64(incr.Mallocs)/float64(incr.Events), float64(incr.AllocBytes)/float64(incr.Events),
		float64(full.Mallocs)/float64(full.Events), float64(full.AllocBytes)/float64(full.Events))

	restore := lastHistoryRow(t, history, "fork-sharing", "restore scale=medium")
	restoreAllocs := mediumRestoreAllocs(t, scales[1])
	const journaledRow = "fig10 beam=3 journaled bytes (bare manifests + first-time states), summed over levels"
	journaled := lastHistoryRow(t, history, "plan-states-by-reference", journaledRow)
	const dirtyRow = "decommission baseline: dirty speakers re-exported, summed over steps"
	dirtySpeakers := lastHistoryRow(t, history, "live-states", dirtyRow)

	virtualMs := func(s ConvergenceStats) float64 { return float64(s.Virtual) / 1e6 }
	// over is the allowed relative excess of got over want; a negative
	// value demands equality in both directions.
	const exact = -1
	table := []struct {
		metric    string
		got, want float64
		over      float64
	}{
		{"1kdevice incremental events", float64(big.Events), large["events"], exact},
		{"1kdevice incremental virtual_ms", virtualMs(big), large["virtual_ms"], exact},
		{"medium incremental events", float64(incr.Events), medium["events"], exact},
		{"medium incremental virtual_ms", virtualMs(incr), medium["virtual_ms"], exact},
		{"medium oracle events", float64(full.Events), medium["events"], exact},
		{"medium oracle virtual_ms", virtualMs(full), medium["virtual_ms"], exact},
		{"medium adv-memo hits", float64(incr.AdvMemoHits), medium["adv_memo_hits"], exact},
		{"medium incremental allocs/event", float64(incr.Mallocs) / float64(incr.Events), allocsPerEventBudget, 0.15},
		{"medium incremental bytes/event", float64(incr.AllocBytes) / float64(incr.Events), bytesPerEventBudget, 0.15},
		{"medium restore allocs", restoreAllocs, restore["allocs_after"], 0.15},
		{journaledRow, fig10JournaledBytes(t), journaled["after"], exact},
		{dirtyRow, decommissionDirtySpeakers(t), dirtySpeakers["after"], exact},
	}
	for _, row := range table {
		switch {
		case row.over < 0 && row.got != row.want:
			t.Errorf("%s = %v, committed %v (zero tolerance: this is a byte-identity break)", row.metric, row.got, row.want)
		case row.over >= 0 && row.got > row.want*(1+row.over):
			t.Errorf("%s = %.3f, over the committed %.3f by more than %.0f%%", row.metric, row.got, row.want, row.over*100)
		}
	}
	// A floor, not a committed figure: the dominated-change skip must keep
	// standing in for at least half of the medium fabric's decision runs.
	const skippedRow = "medium incremental skipped recomputes"
	if floor := 0.5 * float64(incr.Events); float64(incr.Skipped) < floor {
		t.Errorf("%s = %d, under the floor of half the %d events", skippedRow, incr.Skipped, incr.Events)
	}
	if big.AdvMemoHits == 0 {
		t.Error("advertise memo never engaged at 1kdevice")
	}
}

package experiments

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/topo"
)

func init() {
	registerSlow("scale-parallel", "Scale: 1k-device convergence, sequential vs batch-parallel engine", func(seed int64) (string, error) {
		return ScaleParallel(seed, ConvergenceScales()[2], scaleParallelModes()), nil
	})
	registerRows("scale-parallel", func(seed int64) []Row {
		return ScaleParallelRows(seed, ConvergenceScales()[2], scaleParallelModes())
	})
}

// scaleParallelModes picks the engine modes the registered experiment
// compares: always sequential, plus the fleet default fan-out (benchtab
// -parallel N) or 4 workers when no default was set.
func scaleParallelModes() []int {
	par := fabric.DefaultWorkers()
	if par <= 1 {
		par = 4
	}
	return []int{1, par}
}

// ConvergenceScale is one fabric size of the convergence scaling scenario;
// BenchmarkConvergence and the scale-parallel experiment share these.
type ConvergenceScale struct {
	Name   string
	Params topo.FabricParams
	// RackRSWsPerPod bounds how many RSWs per pod originate a rack /24
	// (0 = every RSW). The 1k-device scale trims origins to keep the
	// event count inside the engine's per-run budget.
	RackRSWsPerPod int
}

// ConvergenceScales returns the benchmark sizes: small (the default test
// fabric), medium (the largest sweep-scale point), and 1kdevice (8 pods,
// 1000 devices, 7680 sessions — the fleet size that motivates the parallel
// engine; a sequential converge takes minutes of wall-clock).
func ConvergenceScales() []ConvergenceScale {
	return []ConvergenceScale{
		{Name: "small", Params: topo.FabricParams{}},
		{Name: "medium", Params: topo.FabricParams{
			Pods: 8, RSWsPerPod: 6, FSWsPerPod: 4, Planes: 4,
			SSWsPerPlane: 4, Grids: 2, FADUsPerGrid: 4, FAUUsPerGrid: 4, EBs: 4,
		}},
		{Name: "1kdevice", Params: topo.FabricParams{
			Pods: 8, RSWsPerPod: 100, FSWsPerPod: 8, Planes: 8,
			SSWsPerPlane: 8, Grids: 4, FADUsPerGrid: 8, FAUUsPerGrid: 8, EBs: 8,
		}, RackRSWsPerPod: 1},
	}
}

// ConvergenceStats reports one converge-from-cold run of a scale point.
type ConvergenceStats struct {
	Devices  int
	Links    int
	Prefixes int
	Workers  int
	Events   int64
	// Batched counts events that went through the parallel batch path
	// (0 in sequential mode).
	Batched int64
	Virtual time.Duration
	Wall    time.Duration
	// Mallocs counts heap allocations over the same window as Wall
	// (originate + converge; fabric construction excluded).
	Mallocs uint64

	// FullRecompute records the decision-engine mode the run converged
	// under; the remaining fields are the fleet-summed incremental-engine
	// counters (all zero on the full-recompute oracle).
	FullRecompute     bool
	SkippedRecomputes int
	AdvMemoHits       int
	FIBMemoHits       int
}

// convergeCache memoizes converges for the experiment renderers only, so
// `benchtab -exp scale-parallel -json` (which renders both text and rows)
// converges the minutes-long 1k-device fabric once per mode, not twice.
// RunConvergence itself stays uncached: BenchmarkConvergence must measure
// a real converge on every iteration. Keyed by everything that determines
// the result; Wall is whatever the first run measured.
var convergeCache = map[string]ConvergenceStats{}

func cachedConvergence(sc ConvergenceScale, seed int64, workers int) ConvergenceStats {
	key := fmt.Sprintf("%s/%d/%d", sc.Name, seed, workers)
	if s, ok := convergeCache[key]; ok {
		return s
	}
	s := RunConvergence(sc, seed, workers)
	convergeCache[key] = s
	return s
}

// RunConvergence builds the fabric at one scale point, originates the
// backbone default route at every EB plus rack prefixes, and converges
// with the given engine fan-out. Results (events, virtual time, final
// routing state) are byte-identical across worker counts; only Wall and
// Batched vary.
func RunConvergence(sc ConvergenceScale, seed int64, workers int) ConvergenceStats {
	return runConvergence(sc, seed, workers, nil)
}

// RunConvergenceMode is RunConvergence with an explicit decision-engine
// mode (true forces the full-recompute oracle, false forces incremental),
// overriding the fleet default. Results are byte-identical across modes —
// the scale-incremental experiment and differential suite enforce it — so
// the mode only moves Wall and the incremental counters.
func RunConvergenceMode(sc ConvergenceScale, seed int64, workers int, fullRecompute bool) ConvergenceStats {
	return runConvergence(sc, seed, workers, &fullRecompute)
}

func runConvergence(sc ConvergenceScale, seed int64, workers int, mode *bool) ConvergenceStats {
	tp := topo.BuildFabric(sc.Params)
	n := fabric.New(tp, fabric.Options{Seed: seed, Workers: workers})
	if mode != nil {
		n.SetFullRecompute(*mode)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	prefixes := 1
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		if sc.RackRSWsPerPod > 0 && rsw.Index >= sc.RackRSWsPerPod {
			continue
		}
		n.OriginateAt(rsw.ID, rackPrefix(rsw), nil, 0)
		prefixes++
	}
	events := n.Converge()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	incr := n.IncrementalStats()
	return ConvergenceStats{
		Devices:           tp.NumDevices(),
		Links:             tp.NumLinks(),
		Prefixes:          prefixes,
		Workers:           workers,
		Events:            events,
		Batched:           n.EventsBatched(),
		Virtual:           time.Duration(n.Now()),
		Wall:              wall,
		Mallocs:           after.Mallocs - before.Mallocs,
		FullRecompute:     n.FullRecompute(),
		SkippedRecomputes: incr.SkippedRecomputes,
		AdvMemoHits:       incr.AdvertiseMemoHits,
		FIBMemoHits:       incr.FIBMemoHits,
	}
}

// rackPrefix derives a deterministic per-rack /24 from pod and index.
func rackPrefix(rsw *topo.Device) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index%256))
}

// ScaleParallel formats the scale scenario: one converge per engine mode,
// with the differential columns (events, virtual) that must match across
// modes and the wall-clock column that is the point of the parallel
// engine. Wall-clock gains require real cores; on a single-core host the
// parallel run pays fan-out overhead for no speedup, and the output says
// so rather than pretending otherwise.
func ScaleParallel(seed int64, sc ConvergenceScale, modes []int) string {
	var b strings.Builder
	stats := make([]ConvergenceStats, 0, len(modes))
	for _, w := range modes {
		stats = append(stats, cachedConvergence(sc, seed, w))
	}
	s0 := stats[0]
	fmt.Fprintf(&b, "scale=%s devices=%d sessions=%d prefixes=%d cores=%d\n\n",
		sc.Name, s0.Devices, s0.Links, s0.Prefixes, runtime.NumCPU())
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %10s %9s\n",
		"workers", "events", "batched", "virtual", "wall", "speedup")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-10d %12d %12d %12v %10v %8.2fx\n",
			s.Workers, s.Events, s.Batched,
			s.Virtual.Round(time.Millisecond), s.Wall.Round(time.Millisecond),
			float64(s0.Wall)/float64(s.Wall))
	}
	identical := true
	for _, s := range stats[1:] {
		if s.Events != s0.Events || s.Virtual != s0.Virtual {
			identical = false
		}
	}
	fmt.Fprintf(&b, "\nevents/virtual identical across modes: %v (the determinism contract)\n", identical)
	b.WriteString("speedup is wall-clock only and scales with physical cores;\nsee results/BENCH_parallel.json for the committed snapshot.\n")
	return b.String()
}

// ScaleParallelRows is the machine-readable form of ScaleParallel.
func ScaleParallelRows(seed int64, sc ConvergenceScale, modes []int) []Row {
	rows := make([]Row, 0, len(modes))
	for _, w := range modes {
		s := cachedConvergence(sc, seed, w)
		rows = append(rows, Row{
			Label: fmt.Sprintf("workers=%d", w),
			Values: map[string]float64{
				"devices":    float64(s.Devices),
				"sessions":   float64(s.Links),
				"prefixes":   float64(s.Prefixes),
				"events":     float64(s.Events),
				"batched":    float64(s.Batched),
				"virtual_ms": float64(s.Virtual) / 1e6,
				"wall_ms":    float64(s.Wall) / 1e6,
				"cores":      float64(runtime.NumCPU()),
			},
		})
	}
	return rows
}

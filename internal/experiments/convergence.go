package experiments

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/topo"
)

// ConvergenceScale is one fabric size of the convergence scaling scenario;
// BenchmarkConvergence, TestBenchGuard and bench/ share these.
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
// 1000 devices, 7680 sessions).
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
	Events   int64
	Virtual  time.Duration
	Wall     time.Duration
	// Mallocs counts heap allocations and AllocBytes the bytes they took,
	// over the same window as Wall (originate + converge; fabric
	// construction excluded).
	Mallocs    uint64
	AllocBytes uint64

	// FullRecompute records whether the run converged on the oracle
	// (advertise memo off); AdvMemoHits is the fleet-summed count of
	// advertise calls the memo satisfied, and Skipped that of received
	// changes dominated by the advertised route, whose decision run was
	// skipped (both zero on the oracle).
	FullRecompute bool
	AdvMemoHits   int
	Skipped       int
}

// RunConvergenceMode builds the fabric at one scale point, originates the
// backbone default route at every EB plus rack prefixes, and converges
// under an explicit mode (true forces the full-recompute oracle, false the
// advertise memo), overriding the fleet default. Results (events, virtual
// time, final routing state) are byte-identical across modes, so the mode
// only moves Wall and the memo-hit and skip counts.
func RunConvergenceMode(sc ConvergenceScale, seed int64, fullRecompute bool) ConvergenceStats {
	tp := topo.BuildFabric(sc.Params)
	n := fabric.New(tp, fabric.Options{Seed: seed})
	n.SetFullRecompute(fullRecompute)
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
		Devices:       tp.NumDevices(),
		Links:         tp.NumLinks(),
		Prefixes:      prefixes,
		Events:        events,
		Virtual:       time.Duration(n.Now()),
		Wall:          wall,
		Mallocs:       after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		FullRecompute: n.FullRecompute(),
		AdvMemoHits:   incr.AdvertiseMemoHits,
		Skipped:       incr.SkippedRecomputes,
	}
}

// rackPrefix derives a deterministic per-rack /24 from pod and index.
func rackPrefix(rsw *topo.Device) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index%256))
}

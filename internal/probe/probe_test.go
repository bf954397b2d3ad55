package probe_test

import (
	"runtime"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/probe"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// probeByteCeiling bounds what attaching, running and finishing a Transient
// may allocate on top of the measured phase itself, on the medium fabric.
// The probe keeps no event history, so its cost is the attach (two taps per
// speaker), four detectors and one propagation per gated sample: 7.0 MB
// measured for the spine drain below. The per-fork telemetry.Collector the
// planner and guard used before kept a 4096-event ring per device, some
// 900 KB each, for the same four detectors: 264 MB for the same drain.
const probeByteCeiling = 16 << 20

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProbeAttachAllocs drains a spine of the restored medium fabric with
// and without a Transient attached and holds the difference under
// probeByteCeiling.
func TestProbeAttachAllocs(t *testing.T) {
	// The benchmark's medium fabric: 116 devices.
	tp := topo.BuildFabric(topo.FabricParams{
		Pods: 8, RSWsPerPod: 6, FSWsPerPod: 4, Planes: 4,
		SSWsPerPlane: 4, Grids: 2, FADUsPerGrid: 4, FAUUsPerGrid: 4, EBs: 4,
	})
	base := fabric.New(tp, fabric.Options{Seed: 1})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		base.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	base.Converge()
	snap, err := snapshot.Capture(base)
	if err != nil {
		t.Fatal(err)
	}
	spine := tp.ByLayer(topo.LayerSSW)[0].ID
	var watch []topo.DeviceID
	for _, d := range tp.ByLayer(topo.LayerFADU) {
		watch = append(watch, d.ID)
	}
	w := probe.Workload{
		Demands:      traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100),
		Watch:        watch,
		FairShare:    1 / float64(len(watch)),
		BlackholeEps: 0.001,
	}

	run := func(probed bool) (bytes uint64, m probe.Metrics) {
		n := restore(t, snap)
		bytes = allocated(func() {
			var tr *probe.Transient
			if probed {
				tr = probe.NewTransient(n, w)
			}
			n.SetDrained(spine, true)
			events := n.Converge()
			if probed {
				m = tr.Finish(events)
			}
		})
		return bytes, m
	}
	bare, _ := run(false)
	probed, m := run(true)
	if m.Events == 0 || m.Churn == 0 {
		t.Fatalf("the drain moved nothing: %+v", m)
	}
	t.Logf("%d devices, %d events: bare %d B, probed %d B", tp.NumDevices(), m.Events, bare, probed)
	if probed > bare+probeByteCeiling {
		t.Errorf("probe allocated %d B over the bare phase, ceiling %d", probed-bare, probeByteCeiling)
	}
}

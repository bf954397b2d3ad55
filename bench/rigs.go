package main

import (
	"context"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/guard"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/qualify"
	"centralium/internal/server"
	"centralium/internal/snapshot"
	"centralium/internal/store"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// The rigs price one layer's unit of work in isolation, outside any
// workload's op list. They run on traced runs only and carry no bound;
// each rig runs under the workload whose end-to-end numbers it explains.

// perCall times fn in three batches of n calls and returns the fastest
// batch's nanoseconds per call.
func perCall(n int, fn func()) float64 {
	best := 0.0
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ns := float64(time.Since(t0)) / float64(n)
		if b == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// largeParams is the ≥400-device scale point of fabric.us_per_event_large:
// the medium fabric with 44 racks per pod instead of 6 (420 devices), and
// the same 48 rack prefixes, so only fan-out grows.
func largeParams() (topo.FabricParams, int) {
	p := scaleParams(false)
	racks := p.RSWsPerPod
	p.RSWsPerPod = 44
	return p, racks
}

// engineRigs explain converge-cold.
func engineRigs(e *env) []metric {
	params := scaleParams(e.quick)
	assign := rackAssignment(e.rng("racks"), params)

	t0 := time.Now()
	n1, events := coldConverge(nil, params, assign, fabric.Options{Seed: fabricSeed, Workers: 1})
	w1 := time.Since(t0)
	t0 = time.Now()
	coldConverge(nil, params, assign, fabric.Options{Seed: fabricSeed, Workers: 2})
	w2 := time.Since(t0)
	mediumUs := float64(w1) / 1e3 / float64(events)

	out := []metric{{"fabric.par_speedup_w2", float64(w1) / float64(w2), "ratio"}}
	if !e.quick {
		lp, racks := largeParams()
		tp := topo.BuildFabric(lp)
		n := fabric.New(tp, fabric.Options{Seed: fabricSeed})
		for _, eb := range tp.ByLayer(topo.LayerEB) {
			n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
		}
		for _, rsw := range tp.ByLayer(topo.LayerRSW) {
			if rsw.Index < racks {
				n.OriginateAt(rsw.ID, rackPrefix(rsw), nil, 0)
			}
		}
		t0 = time.Now()
		largeEvents := n.Converge()
		largeUs := float64(time.Since(t0)) / 1e3 / float64(largeEvents)
		out = append(out,
			metric{"fabric.us_per_event_large", largeUs, "us"},
			metric{"fabric.scale_growth", largeUs / mediumUs, "ratio"})
	}

	// One Speaker update on the BenchmarkSpeakerDecision rig.
	s := bgp.NewSpeaker(bgp.Config{ID: "ssw", ASN: 300, Multipath: true}, nil)
	sess := make([]bgp.SessionID, 4)
	for i := range sess {
		sess[i] = bgp.SessionID(fmt.Sprintf("s%d", i))
		s.AddPeer(sess[i], fmt.Sprintf("fadu.%d", i), uint32(100+i), 100)
	}
	p := netip.MustParsePrefix("0.0.0.0/0")
	i := 0
	out = append(out, metric{"bgp.decision_us", perCall(20000, func() {
		s.HandleUpdate(sess[i%4], bgp.Update{Prefix: p, ASPath: []uint32{uint32(100 + i%4), uint32(60 + i%2)}})
		s.TakeOutbox()
		i++
	}) / 1e3, "us"})

	tbl := fib.New(0)
	hops := []fib.NextHop{{ID: "a", Weight: 3}, {ID: "b", Weight: 1}}
	alt := []fib.NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}
	pfx := netip.MustParsePrefix("10.0.0.0/8")
	i = 0
	out = append(out,
		metric{"fib.install_ns", perCall(200000, func() {
			if i%2 == 0 {
				tbl.Install(pfx, hops)
			} else {
				tbl.Install(pfx, alt)
			}
			i++
		}), "ns"},
		metric{"fib.touch_ns", perCall(200000, func() { tbl.Touch(pfx) }), "ns"})

	return append(out, snapshotRigs(n1, "medium")...)
}

// snapshotRigs price capture, fingerprint, encode and restore of one
// converged network.
func snapshotRigs(n *fabric.Network, size string) []metric {
	var snap *snapshot.Snapshot
	capture := perCall(3, func() { snap, _ = snapshot.Capture(n) })
	var encoded []byte
	fingerprint := perCall(3, func() { snap.Fingerprint() })
	encoded, _ = snap.Encode()
	restore := perCall(3, func() { snap.Restore() })
	out := []metric{{"snapshot.restore_ms_" + size, restore / 1e6, "ms"}}
	if size == "medium" {
		out = append(out,
			metric{"snapshot.capture_ms", capture / 1e6, "ms"},
			metric{"snapshot.fingerprint_ms", fingerprint / 1e6, "ms"},
			metric{"snapshot.encoded_kb", float64(len(encoded)) / 1024, "KB"})
	}
	return out
}

// churnRigs explain migrate-churn: the RPA evaluator with and without its
// cache, and the telemetry collector's cost per event.
func churnRigs(*env) []metric {
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "bench",
		Destination: core.Destination{Community: "D"},
		PathSets: []core.PathSet{
			{Signature: core.PathSignature{ASPathRegex: "^(4200000001|4200000002) "}},
			{Signature: core.PathSignature{NextHopRegex: "^fadu\\.g[0-3]\\."}},
			{Signature: core.PathSignature{Communities: []string{"D"}}},
		},
	}}}
	ev, err := core.NewEvaluator(cfg)
	if err != nil {
		return nil
	}
	routes := make([]core.RouteAttrs, 4)
	for j := range routes {
		routes[j] = core.RouteAttrs{
			Prefix:      netip.MustParsePrefix("10.1.0.0/16"),
			ASPath:      []uint32{4200000000 + uint32(j), 64512},
			Communities: []string{"D"},
			NextHop:     fmt.Sprintf("fadu.g%d.0", j),
			Peer:        fmt.Sprintf("fadu.g%d.0", j),
			LocalPref:   100,
		}
	}
	ev.SelectPaths(routes, 4)
	hit := perCall(20000, func() { ev.SelectPaths(routes, 4) })
	ev.Cache().SetEnabled(false)
	miss := perCall(20000, func() { ev.SelectPaths(routes, 4) })

	col := telemetry.NewCollector(telemetry.CollectorOptions{})
	events := []telemetry.Event{
		{Kind: telemetry.KindAdjRIBIn, Device: "ssw.pl1.1"},
		{Kind: telemetry.KindBestPath, Device: "ssw.pl1.1"},
		{Kind: telemetry.KindFIBWrite, Device: "ssw.pl1.1", NHGroups: 3},
		{Kind: telemetry.KindTrafficSample, Device: "fadu.g0.0", Share: 0.25, FairShare: 0.25},
	}
	var now int64
	emit := perCall(100000, func() {
		ev := events[now%int64(len(events))]
		now++
		ev.Time = now * 1000
		col.Emit(ev)
	})
	return []metric{
		{"core.eval_hit_ns", hit, "ns"},
		{"core.eval_miss_ns", miss, "ns"},
		{"telemetry.emit_ns", emit, "ns"},
	}
}

// whatIfRigs explain serve-whatif: the HTTP floor, a cold base build, a
// bare library qualification, and what a second client buys.
func whatIfRigs(e *env) []metric {
	bases, err := loadBases(scenarioBases())
	if err != nil {
		return nil
	}
	d, err := bootDaemon("")
	if err != nil {
		return nil
	}
	defer d.stop()
	var cold []float64
	for _, b := range scenarioBases() {
		t0 := time.Now()
		d.warm([]base{b})
		cold = append(cold, ms(time.Since(t0)))
	}
	floor := perCall(300, func() { d.call(http.MethodGet, "/v1/healthz", nil) })

	b := bases["fig10"]
	lib := perCall(30, func() {
		fork, err := b.snap.RestoreWith(fabric.RestoreOptions{Topo: b.tp.Clone()})
		if err != nil {
			return
		}
		qualify.Run(qualify.Spec{
			Name: "rig", Net: fork, Intent: b.params.Intent, OriginAltitude: b.params.OriginAltitude,
			Workload:   b.params.Demands,
			Invariants: []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops()},
		})
	})

	// server.scale_c2: the same evaluated requests from one client, then
	// from two, each on its own connection.
	var reqs []*server.WhatIfRequest
	for _, op := range whatIfOps(e, bases) {
		if op.class != "memo-hit" {
			r := op.req
			reqs = append(reqs, &r)
		}
	}
	if len(reqs) > 200 {
		reqs = reqs[:200]
	}
	d2 := *d
	d2.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer d2.hc.CloseIdleConnections()
	drive := func(clients []*daemon) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func(c *daemon) {
				defer wg.Done()
				for _, r := range reqs {
					c.post("/v1/whatif", r)
				}
			}(c)
		}
		wg.Wait()
		return float64(len(reqs)*len(clients)) / time.Since(t0).Seconds()
	}
	one := drive([]*daemon{d})
	two := drive([]*daemon{d, &d2})
	return []metric{
		{"server.http_floor_us", floor / 1e3, "us"},
		{"server.cold_build_ms", median(cold), "ms"},
		{"qualify.run_ms", lib / 1e6, "ms"},
		{"server.scale_c2", two / one, "ratio"},
	}
}

// midParams is the 50-device fabric of the planner's probe-share rig.
func midParams() topo.FabricParams { return topo.FabricParams{Pods: 4} }

// planRigs explain plan-search: what scoring one schedule costs with the
// per-event probe, against pushing the same waves through a bare
// controller — the share of planner time that is the probe.
func planRigs(*env) []metric {
	tp := topo.BuildFabric(midParams())
	n := fabric.New(tp, fabric.Options{Seed: fabricSeed})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	n.Converge()
	snap, err := snapshot.Capture(n)
	if err != nil {
		return nil
	}
	var watch []topo.DeviceID
	for _, d := range tp.ByLayer(topo.LayerFADU) {
		watch = append(watch, d.ID)
	}
	p := planner.Params{
		Seed: 1,
		Intent: controller.PathEqualizationIntent(tp,
			[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFADU}, migrate.BackboneCommunity),
		OriginAltitude: topo.LayerEB.Altitude(),
		Demands:        traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100),
		Watch:          watch,
	}
	waves := (&controller.Controller{Topo: tp}).Waves(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude})
	sched := planner.FromWaves(waves)
	score := perCall(1, func() { planner.ScoreSchedule(snap, p, sched) })
	bare := perCall(1, func() {
		f, err := snap.Restore()
		if err != nil {
			return
		}
		ctl := &controller.Controller{
			Topo:   f.Topo,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return f.DeployRPA(d, cfg) },
			Settle: func() { f.Converge() },
		}
		ctl.Run(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude, Schedule: waves, SettlePerDevice: true})
	})
	return []metric{
		{"planner.score_ms_mid", score / 1e6, "ms"},
		{"planner.bare_ms_mid", bare / 1e6, "ms"},
		{"planner.probe_share", 1 - bare/score, "ratio"},
	}
}

// guardRigs explain execute-guarded: the supervisor against a bare
// controller on the same campaign.
func guardRigs(*env) []metric {
	snap, p, err := planner.ScenarioSetup("fig10", 1)
	if err != nil {
		return nil
	}
	guarded := perCall(5, func() {
		c := guard.FromParams(p)
		c.Name = "rig"
		guard.Run(context.Background(), snap, c)
	})
	bare := perCall(5, func() {
		f, err := snap.Restore()
		if err != nil {
			return
		}
		ctl := &controller.Controller{
			Topo:   f.Topo,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error { return f.DeployRPA(d, cfg) },
			Settle: func() { f.Converge() },
		}
		ctl.Run(controller.Rollout{Intent: p.Intent, OriginAltitude: p.OriginAltitude, SettlePerDevice: p.SettlePerDevice})
	})
	return []metric{
		{"guard.run_ms", guarded / 1e6, "ms"},
		{"guard.bare_ms", bare / 1e6, "ms"},
		{"guard.overhead_x", guarded / bare, "ratio"},
	}
}

// storeRigs price the store's unit costs on this filesystem: a 4 KB
// append with and without fsync, an object write, and recovery.
func storeRigs(e *env) []metric {
	payload := make([]byte, 4096)
	appendCost := func(policy store.SyncPolicy, n int) float64 {
		dir, err := e.newDir()
		if err != nil {
			return 0
		}
		defer os.RemoveAll(dir)
		l, err := store.OpenLog(dir, store.Options{Sync: policy})
		if err != nil {
			return 0
		}
		defer l.Close()
		return perCall(n, func() { l.Append(1, payload) })
	}
	out := []metric{
		{"store.append_us", appendCost(store.SyncAlways, 100) / 1e3, "us"},
		{"store.append_nosync_us", appendCost(store.SyncNever, 2000) / 1e3, "us"},
	}

	dir, err := e.newDir()
	if err != nil {
		return out
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out
	}
	object := make([]byte, 64<<10)
	k := 0
	out = append(out, metric{"store.object_put_ms", perCall(10, func() {
		k++
		st.Objects.Put(fmt.Sprintf("rig-object-%d", k), object)
	}) / 1e6, "ms"})
	st.Close()

	// Recovery: reopen and replay a 1,000-record log.
	if l, err := store.OpenLog(filepath.Join(dir, "recover"), store.Options{Sync: store.SyncNever}); err == nil {
		for i := 0; i < 1000; i++ {
			l.Append(1, payload[:512])
		}
		l.Close()
		t0 := time.Now()
		if l, err = store.OpenLog(filepath.Join(dir, "recover"), store.Options{}); err == nil {
			l.Replay(func(store.Record) error { return nil })
			out = append(out, metric{"store.recover_ms", ms(time.Since(t0)), "ms"})
			l.Close()
		}
	}
	return out
}

package main

import (
	"fmt"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// The two library workloads: the same engine driven in bulk (a cold
// converge) and in small deltas on a fork (a migration's churn). Neither
// touches store, server, planner or guard.

func convergeCold() *workload {
	return &workload{
		name:   "converge-cold",
		why:    "bulk route propagation from cold on the 116-device fabric: fabric, bgp and fib and nothing else",
		layers: []string{"fabric"},
		setup:  setupConvergeCold,
	}
}

func setupConvergeCold(e *env) (*instance, error) {
	params := scaleParams(e.quick)
	assign := rackAssignment(e.rng("racks"), params)
	opts := fabric.Options{Seed: fabricSeed}

	var last *fabric.Network
	var lastEvents int64
	var refFP string
	inst := &instance{
		classes:    []string{"converge"},
		classOrder: []string{"converge"},
		close:      func() {},
	}
	inst.run = func(int) (opResult, error) {
		n, events := coldConverge(e.tr, params, assign, opts)
		last, lastEvents = n, events
		return opResult{
			digest:    fmt.Sprintf("events=%d virtual=%d", events, n.Now()),
			events:    events,
			virtualNs: n.Now(),
		}, nil
	}
	inst.after = sameFingerprint(&last, &refFP)
	// The oracle: the full-recompute decision process must reach the same
	// state in the same number of events as the incremental default.
	inst.verify = func() error {
		full := opts
		full.FullRecompute = true
		n, events := coldConverge(nil, params, assign, full)
		_, fp, err := fingerprintOf(nil, n)
		if err != nil {
			return err
		}
		if events != lastEvents || fp != refFP {
			return fmt.Errorf("full recompute: %d events, fingerprint %.12s; incremental: %d events, fingerprint %.12s",
				events, fp, lastEvents, refFP)
		}
		return nil
	}
	inst.counters = func() map[string]float64 { return engineCounters(last) }
	return inst, nil
}

// sameFingerprint is the after-round check of both library workloads:
// the network the round's last op left behind must fingerprint the same
// every round. The first round sets the reference.
func sameFingerprint(last **fabric.Network, ref *string) func() (int, error) {
	return func() (int, error) {
		_, fp, err := fingerprintOf(nil, *last)
		if err != nil {
			return 0, err
		}
		if *ref == "" {
			*ref = fp
		}
		if fp != *ref {
			return 1, nil
		}
		return 0, nil
	}
}

// engineCounters reads the work-avoidance and FIB counters of a network
// that ran one op from construction (or from a restore, whose counters
// restart at the snapshot's values).
func engineCounters(n *fabric.Network) map[string]float64 {
	incr := n.IncrementalStats()
	var writes int
	for _, d := range n.Topo.Devices() {
		writes += n.Speaker(d.ID).FIB().Stats().Writes
	}
	return map[string]float64{
		"bgp.skipped":  float64(incr.SkippedRecomputes),
		"bgp.adv_memo": float64(incr.AdvertiseMemoHits),
		"bgp.fib_memo": float64(incr.FIBMemoHits),
		"fib.writes":   float64(writes),
	}
}

func migrateChurn() *workload {
	return &workload{
		name:   "migrate-churn",
		why:    "small deltas on a fork of the converged fabric: restore, RPA rollout, drain two spines, traffic, undrain",
		layers: []string{"fabric", "snapshot", "controller"},
		setup:  setupMigrateChurn,
	}
}

// churnOpsPerRound: one op is ≈70 ms on the medium fabric.
const churnOpsPerRound = 10

func setupMigrateChurn(e *env) (*instance, error) {
	params := scaleParams(e.quick)
	assign := rackAssignment(e.rng("racks"), params)
	baseNet, _ := coldConverge(e.tr, params, assign, fabric.Options{Seed: fabricSeed})
	snap, _, err := fingerprintOf(e.tr, baseNet)
	if err != nil {
		return nil, err
	}
	tp := baseNet.Topo
	// Built once: every intent carries a process-global version tag that
	// lands in the state fingerprint.
	intent := controller.PathEqualizationIntent(tp,
		[]topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFADU}, migrate.BackboneCommunity)
	demands := traffic.UniformDemands(tp.ByLayer(topo.LayerRSW), migrate.DefaultRoute, 100)

	// The seed draws which two spines each op drains, among the spines
	// that are nobody's tie-break-preferred path (plane ≥ 1, index ≥ 1).
	// Draining a preferred spine (index 0, or anything in plane 0) moves 5
	// to 25 times as many routes — 4,242 to 23,250 events against 882 to
	// 1,042 on the medium fabric — and the draw, not the code, would set
	// the round's cost.
	var ordinary []topo.DeviceID
	for _, d := range tp.ByLayer(topo.LayerSSW) {
		if d.Plane >= 1 && d.Index >= 1 {
			ordinary = append(ordinary, d.ID)
		}
	}
	rng := e.rng("drains")
	drains := make([][2]topo.DeviceID, churnOpsPerRound)
	for i := range drains {
		p := rng.Perm(len(ordinary))
		drains[i] = [2]topo.DeviceID{ordinary[p[0]], ordinary[p[1]]}
	}

	inst := &instance{classOrder: []string{"churn"}, close: func() {}}
	for range drains {
		inst.classes = append(inst.classes, "churn")
	}
	var last *fabric.Network
	var refFP string
	inst.run = func(i int) (opResult, error) {
		tr := e.tr
		end := tr.span("snapshot.restore")
		f, err := snap.Restore()
		end()
		if err != nil {
			return opResult{}, err
		}
		e0, t0 := f.EventsProcessed(), f.Now()
		converge := func() {
			end := tr.span("fabric.converge")
			f.Converge()
			end()
		}
		ctl := &controller.Controller{
			Topo: f.Topo,
			Deploy: func(d topo.DeviceID, cfg *core.Config) error {
				end := tr.span("fabric.deploy_rpa")
				defer end()
				return f.DeployRPA(d, cfg)
			},
			Settle: converge,
		}
		end = tr.span("controller.rollout")
		err = ctl.Run(controller.Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()})
		end()
		if err != nil {
			return opResult{}, err
		}
		setDrained := func(on bool) {
			end := tr.span("fabric.set_drained")
			f.SetDrained(drains[i][0], on)
			f.SetDrained(drains[i][1], on)
			end()
			converge()
		}
		setDrained(true)
		end = tr.span("traffic.propagate")
		res := (&traffic.Propagator{Net: f}).Run(demands)
		end()
		setDrained(false)
		last = f
		out := opResult{events: f.EventsProcessed() - e0, virtualNs: f.Now() - t0}
		out.digest = fmt.Sprintf("events=%d virtual=%d delivered=%.9f", out.events, out.virtualNs, res.DeliveredFraction())
		if res.DeliveredFraction() < 0.999999 {
			return out, fmt.Errorf("drained fabric delivered %.6f of the traffic", res.DeliveredFraction())
		}
		return out, nil
	}
	// The fork that drained and undrained must end in the same state every
	// round (the state after the rollout; the last op's drains are fixed).
	inst.after = sameFingerprint(&last, &refFP)
	inst.counters = func() map[string]float64 {
		// A fork's work-avoidance counters start at zero; its FIB and
		// evaluator-cache counters carry on from the snapshot's.
		c := engineCounters(last)
		c["fib.writes"] -= engineCounters(baseNet)["fib.writes"]
		hits, misses := evalCacheStats(last)
		bh, bm := evalCacheStats(baseNet)
		c["core.hits"], c["core.misses"] = hits-bh, misses-bm
		return c
	}
	return inst, nil
}

// evalCacheStats sums the RPA evaluator cache counters over the fleet's
// speakers, as the snapshot codec exports them.
func evalCacheStats(n *fabric.Network) (hits, misses float64) {
	st, err := n.ExportState()
	if err != nil {
		return 0, 0
	}
	for _, node := range st.Nodes {
		hits += float64(node.Speaker.Cache.Hits)
		misses += float64(node.Speaker.Cache.Misses)
	}
	return hits, misses
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/qualify"
	"centralium/internal/server"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

func serveWhatIf() *workload {
	return &workload{
		name:   "serve-whatif",
		why:    "the interactive path: what-if requests over loopback HTTP against warm bases, where server and snapshot overhead outweigh the engine",
		layers: []string{"server", "snapshot", "qualify"},
		setup:  setupServeWhatIf,
	}
}

// whatIfMix is the request mix of one round, cheapest class first. The
// weights put the p50 rank a tenth of a round inside "decommission" and
// the p95 rank well inside "pod-drain": the mix-weight rule.
var whatIfMix = []struct {
	class string
	share float64
}{
	{"memo-hit", 0.20},
	{"fig10", 0.20},
	{"decommission", 0.40},
	{"pod-drain", 0.20},
}

const (
	whatIfOpsPerRound = 400
	// whatIfMemoKeys distinct requests make up the memo-hit class; they
	// fit the daemon's 256-entry response memo with room to spare.
	whatIfMemoKeys = 12
)

// scenarioBase is a harness-side copy of what the daemon's snapshot cache
// holds for one base: the request generator reads the intent's devices
// from it and the traced run re-enacts requests on it.
type scenarioBase struct {
	base
	snap   *snapshot.Snapshot
	params planner.Params
	tp     *topo.Topology
}

func loadBases(bases []base) (map[string]*scenarioBase, error) {
	out := make(map[string]*scenarioBase)
	for _, b := range bases {
		snap, params, err := planner.ScenarioSetup(b.scenario, b.seed)
		if err != nil {
			return nil, err
		}
		n, err := snap.Restore()
		if err != nil {
			return nil, err
		}
		out[b.scenario] = &scenarioBase{base: b, snap: snap, params: params, tp: n.Topo}
	}
	return out, nil
}

// randomSchedule deals the intent's devices into one to three waves in a
// seed-drawn order. Every device is scheduled exactly once (anything else
// is a 400, not a verdict); whether the order survives the gate is the
// verdict's business.
func randomSchedule(rng *rand.Rand, devs []topo.DeviceID) string {
	d := append([]topo.DeviceID(nil), devs...)
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	k := 1 + rng.Intn(3)
	if k > len(d) {
		k = len(d)
	}
	cuts := rng.Perm(len(d) - 1)[:k-1]
	isCut := make(map[int]bool)
	for _, c := range cuts {
		isCut[c+1] = true
	}
	var waves [][]topo.DeviceID
	var cur []topo.DeviceID
	for i, dev := range d {
		if isCut[i] {
			waves = append(waves, cur)
			cur = nil
		}
		cur = append(cur, dev)
	}
	waves = append(waves, cur)
	return planner.FromWaves(waves).String()
}

type whatIfOp struct {
	class string
	req   server.WhatIfRequest
}

func whatIfOps(e *env, bases map[string]*scenarioBase) []whatIfOp {
	total := whatIfOpsPerRound
	if e.quick {
		total /= 10
	}
	rng := e.rng("whatif")
	fig10 := bases["fig10"]
	memoReqs := make([]server.WhatIfRequest, whatIfMemoKeys)
	for i := range memoReqs {
		memoReqs[i] = server.WhatIfRequest{
			Scenario:       "fig10",
			Seed:           fig10.seed,
			Schedule:       randomSchedule(rng, fig10.params.Intent.Devices()),
			MaxFunnelShare: 0.9 + float64(i)/1000, // keeps the keys distinct
		}
	}
	var ops []whatIfOp
	for _, m := range whatIfMix {
		n := int(m.share * float64(total))
		for i := 0; i < n; i++ {
			if m.class == "memo-hit" {
				ops = append(ops, whatIfOp{m.class, memoReqs[i%len(memoReqs)]})
				continue
			}
			b := bases[m.class]
			req := server.WhatIfRequest{
				Scenario: m.class,
				Seed:     b.seed,
				Schedule: randomSchedule(rng, b.params.Intent.Devices()),
				NoMemo:   true,
			}
			// One request in five asks for a funnel bound tight enough
			// that some schedules fail the gate: a failed verdict is
			// still a 200.
			if rng.Intn(5) == 0 {
				req.MaxFunnelShare = 0.2 + 0.3*rng.Float64()
			}
			ops = append(ops, whatIfOp{m.class, req})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func setupServeWhatIf(e *env) (*instance, error) {
	bases, err := loadBases(scenarioBases())
	if err != nil {
		return nil, err
	}
	d, err := bootDaemon("")
	if err != nil {
		return nil, err
	}
	if err := d.warm(scenarioBases()); err != nil {
		d.stop()
		return nil, err
	}
	ops := whatIfOps(e, bases)
	inst := &instance{close: func() { d.stop() }}
	for _, m := range whatIfMix {
		inst.classOrder = append(inst.classOrder, m.class)
	}
	for _, op := range ops {
		inst.classes = append(inst.classes, op.class)
	}
	inst.run = func(i int) (opResult, error) {
		op := &ops[i]
		end := e.tr.span("server.request")
		body, err := d.post("/v1/whatif", &op.req)
		end()
		if err != nil {
			return opResult{}, err
		}
		var resp server.WhatIfResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return opResult{}, err
		}
		out := opResult{digest: hashOf(body), events: resp.Events}
		if e.tr != nil && op.class != "memo-hit" {
			t0 := time.Now()
			err = reenactWhatIf(e.tr, bases[op.req.Scenario], &op.req, &resp)
			out.reenactNs = int64(time.Since(t0))
		}
		return out, err
	}
	inst.counters = func() map[string]float64 {
		m, err := d.metrics()
		if err != nil {
			return nil
		}
		return map[string]float64{
			"server.cache_hits":   float64(m.SnapshotCacheHits),
			"server.cache_misses": float64(m.SnapshotCacheMisses),
			"server.memo_hits":    float64(m.MemoHits),
			"server.memo_misses":  float64(m.MemoMisses),
			"server.rejected":     float64(m.RejectedQueueFull + m.RejectedDraining + m.DeadlineExpired),
		}
	}
	return inst, nil
}

// reenactWhatIf repeats at library level what the daemon just did for the
// request — fork the base, qualify the schedule on it, encode the verdict
// — with a span around each call, so the request span minus these is what
// the server layer itself cost. It also checks the daemon's verdict
// against the library's.
func reenactWhatIf(tr *tracer, b *scenarioBase, req *server.WhatIfRequest, got *server.WhatIfResponse) error {
	end := tr.span("snapshot.restore")
	fork, err := b.snap.RestoreWith(fabric.RestoreOptions{Topo: b.tp.Clone()})
	end()
	if err != nil {
		return err
	}
	canon := *req
	if err := canon.Validate(); err != nil {
		return err
	}
	invariants := []qualify.Invariant{qualify.NoBlackholes(), qualify.NoLoops()}
	if req.MaxFunnelShare > 0 {
		invariants = append(invariants, qualify.FunnelBound(b.params.Watch, req.MaxFunnelShare))
	}
	var rep *qualify.Report
	end = tr.span("qualify.gate")
	gate := qualify.Gate(qualify.Spec{
		Name:           "reenact",
		Net:            fork,
		Intent:         b.params.Intent,
		OriginAltitude: b.params.OriginAltitude,
		Workload:       b.params.Demands,
		Invariants:     invariants,
		Schedule:       canon.Waves(),
		SampleEvery:    canon.SampleEvery,
		OnReport:       func(r *qualify.Report) { rep = r },
	})
	gate.Check() // the verdict arrives through OnReport
	end()
	if rep == nil {
		return fmt.Errorf("re-enacted gate produced no report")
	}
	end = tr.span("server.encode")
	_, err = json.Marshal(got)
	end()
	if err != nil {
		return err
	}
	if rep.Passed != got.Passed || rep.Events != got.Events {
		return fmt.Errorf("daemon verdict (passed=%v events=%d) differs from the library's (passed=%v events=%d)",
			got.Passed, got.Events, rep.Passed, rep.Events)
	}
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"centralium/internal/guard"
	"centralium/internal/server"
	"centralium/internal/store"
)

func executeGuarded() *workload {
	return &workload{
		name:   "execute-guarded",
		why:    "guarded campaign waves through a durable daemon: per-wave capture, probe and checkpoint in guard, append and fsync in store, planner idle",
		layers: []string{"guard", "store"},
		setup:  setupExecuteGuarded,
	}
}

// executeMix is the campaign mix of one round, cheapest wave first. A
// clean fig10 campaign is three wave posts, every other campaign one, so
// a full round is 200 posts from 140 campaigns, 24 of them (one in six)
// under an envelope tight enough to force rollback, a degraded retry and
// quarantine. The p50 rank falls mid-"fig10", the p95 rank inside
// "violating".
var executeMix = []struct {
	class     string
	campaigns int
}{
	{"decommission", 50},
	{"fig10", 30},
	{"pod-drain", 36},
	{"violating", 24},
}

// campaign is one execution identity and the posts it takes to finish.
type campaign struct {
	class    string
	req      server.ExecuteRequest
	posts    int
	violates bool
	// final is the terminal response body of this round.
	final []byte
	// checkpoint is the library-level re-enactment's resume point.
	checkpoint []byte
}

func executeCampaigns(e *env, bases map[string]*scenarioBase) []*campaign {
	rng := e.rng("execute")
	div := 1
	if e.quick {
		div = 5
	}
	// Envelope numbers are drawn without replacement so every campaign
	// is its own identity; they never change a verdict.
	serial := rng.Perm(1000)
	next := func() int { v := serial[0]; serial = serial[1:]; return v }
	var out []*campaign
	for _, m := range executeMix {
		for i := 0; i < m.campaigns/div; i++ {
			c := &campaign{class: m.class, posts: 1}
			scenario := m.class
			switch {
			case m.class == "violating" && i%2 == 0:
				// The first fig10 wave funnels half the traffic
				// through one FA.
				scenario, c.violates = "fig10", true
				c.req.Envelope = fmt.Sprintf("share=%.3f", 0.3+float64(next())/1e5)
				c.req.MaxRetries = 1
			case m.class == "violating":
				scenario, c.violates = "pod-drain", true
				c.req.Envelope = fmt.Sprintf("churn=%d", 1+next()%8)
				c.req.MaxRetries = 1
				// Distinct identities despite the small churn range.
				c.req.Envelope += fmt.Sprintf(",converge-ms=%d", 5000+next())
			default:
				c.req.Envelope = fmt.Sprintf("session-downs=0,blackhole-ms=5,converge-ms=%d", 5000+next())
				c.req.MaxRetries = 1 + rng.Intn(3)
				if scenario == "fig10" {
					c.posts = 3
				}
			}
			c.req.Scenario = scenario
			c.req.Seed = bases[scenario].seed
			c.req.MaxWaves = 1
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// executeReplays is how many finished identities are replayed after the
// restart at the end of each round.
const executeReplays = 3

func setupExecuteGuarded(e *env) (*instance, error) {
	bases, err := loadBases(scenarioBases())
	if err != nil {
		return nil, err
	}
	camps := executeCampaigns(e, bases)
	type wavePost struct {
		c    *campaign
		wave int
	}
	var ops []wavePost
	inst := &instance{}
	for _, m := range executeMix {
		inst.classOrder = append(inst.classOrder, m.class)
	}
	for _, c := range camps {
		for w := 0; w < c.posts; w++ {
			ops = append(ops, wavePost{c, w})
			inst.classes = append(inst.classes, c.class)
		}
	}

	var d *daemon
	var dir string
	var tally storeTally
	var recoverMs []float64
	// lib is the store the traced run's re-enactment journals into.
	var lib *store.Store
	var libDir string
	inst.before = func() (err error) {
		if d, dir, err = freshDurable(e, scenarioBases()); err != nil {
			return err
		}
		if e.tr != nil {
			if libDir, err = e.newDir(); err != nil {
				return err
			}
			lib, err = store.Open(libDir, store.Options{})
		}
		return err
	}
	inst.run = func(i int) (opResult, error) {
		op := ops[i]
		end := e.tr.span("server.request")
		body, err := d.post("/v1/execute", &op.c.req)
		end()
		if err != nil {
			return opResult{}, err
		}
		var resp server.ExecuteResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return opResult{}, err
		}
		out := opResult{digest: hashOf(body)}
		if err := checkWave(op.c, op.wave, &resp); err != nil {
			return out, err
		}
		if op.wave == op.c.posts-1 {
			op.c.final = body
		}
		if e.tr != nil {
			t0 := time.Now()
			err = reenactWave(e.tr, lib, bases[op.c.req.Scenario], op.c, op.wave, &resp)
			out.reenactNs = int64(time.Since(t0))
		}
		return out, err
	}
	// After the timed region: drain, reopen the same data directory, and
	// ask again for identities that finished before the restart. The
	// recovered daemon must answer with the bytes it answered then.
	inst.after = func() (failed int, err error) {
		tally.add(d, dir, len(ops))
		if err = d.stop(); err != nil {
			return 0, err
		}
		if lib != nil {
			lib.Close()
			os.RemoveAll(libDir)
			lib = nil
		}
		t0 := time.Now()
		d, err = bootDaemon(dir)
		if err != nil {
			return 0, fmt.Errorf("reopen after drain: %w", err)
		}
		recoverMs = append(recoverMs, float64(time.Since(t0))/1e6)
		for _, c := range camps[len(camps)-executeReplays:] {
			body, err := d.post("/v1/execute", &c.req)
			if err != nil || string(body) != string(c.final) {
				failed++
				fmt.Fprintf(os.Stderr, "replay of %s %q after restart: err=%v\n got  %s\n want %s\n", c.req.Scenario, c.req.Envelope, err, body, c.final)
			}
		}
		err = d.stop()
		os.RemoveAll(dir)
		d = nil
		return failed, err
	}
	inst.close = func() {
		if d != nil {
			d.stop()
			os.RemoveAll(dir)
		}
	}
	inst.counters = func() map[string]float64 {
		c := tally.counters()
		c["server.boot_recover_ms"] = median(recoverMs)
		var retries, waves float64
		for _, cp := range camps {
			var resp server.ExecuteResponse
			if json.Unmarshal(cp.final, &resp) == nil {
				retries += float64(resp.Retries)
			}
			waves += float64(cp.posts)
		}
		c["guard.retries_per_op"] = retries / waves
		return c
	}
	return inst, nil
}

// checkWave holds one wave post's response to what its campaign should
// be doing at that point: paused at a wave boundary until the last post;
// then completed if clean, or aborted and back on the base state if it
// violates its envelope.
func checkWave(c *campaign, wave int, resp *server.ExecuteResponse) error {
	if wave < c.posts-1 {
		if resp.State != string(guard.StatePaused) || resp.WavesDone != wave+1 {
			return fmt.Errorf("wave %d of %s: state %s, %d waves done", wave, resp.ExecID, resp.State, resp.WavesDone)
		}
		return nil
	}
	if !c.violates {
		if resp.State != string(guard.StateCompleted) {
			return fmt.Errorf("clean campaign %s ended %s:\n%s", resp.ExecID, resp.State, resp.Log)
		}
		return nil
	}
	if resp.State != string(guard.StateAborted) || resp.Rollbacks == 0 || len(resp.Quarantined) == 0 {
		return fmt.Errorf("violating campaign %s ended %s with %d rollbacks", resp.ExecID, resp.State, resp.Rollbacks)
	}
	if resp.FinalFingerprint != resp.Fingerprint {
		return fmt.Errorf("aborted campaign %s did not roll back to the base state", resp.ExecID)
	}
	return nil
}

// spanObjects times the guard's snapshot puts and gets as store spans.
type spanObjects struct {
	tr    *tracer
	store guard.ObjectStore
}

func (s spanObjects) Put(key string, data []byte) error {
	end := s.tr.span("store.object_put")
	defer end()
	return s.store.Put(key, data)
}

func (s spanObjects) Get(key string) ([]byte, bool, error) {
	end := s.tr.span("store.object_get")
	defer end()
	return s.store.Get(key)
}

// reenactWave drives the same campaign one wave further at library level
// — guard.Run for the first wave, guard.Resume from the journaled
// checkpoint after — journaling into a store of its own with a span
// around every append and object write.
func reenactWave(tr *tracer, lib *store.Store, b *scenarioBase, c *campaign, wave int, got *server.ExecuteResponse) error {
	canon := c.req
	if err := canon.Validate(); err != nil {
		return err
	}
	env, err := guard.ParseEnvelope(canon.Envelope)
	if err != nil {
		return err
	}
	gc := guard.FromParams(b.params)
	gc.Name = "exec-" + got.ExecID[:12]
	gc.Envelope = env
	gc.Retry.MaxRetries = canon.MaxRetries
	gc.MaxWaves = 1
	wal := lib.Journal(5, got.ExecID)
	gc.Journal = guard.JournalFunc(func(level int, cp []byte) error {
		c.checkpoint = append([]byte(nil), cp...)
		end := tr.span("store.append")
		defer end()
		return wal.SaveProgress(level, cp)
	})
	gc.Objects = spanObjects{tr, lib.Objects}
	var res *guard.Result
	if wave == 0 {
		end := tr.span("guard.run")
		res, err = guard.Run(context.Background(), b.snap, gc)
		end()
	} else {
		end := tr.span("guard.resume")
		res, err = guard.Resume(context.Background(), c.checkpoint, gc)
		end()
	}
	if err != nil {
		return err
	}
	if res.State != guard.StatePaused {
		end := tr.span("snapshot.fingerprint")
		fp, err := res.Snapshot.Fingerprint()
		end()
		if err != nil {
			return err
		}
		if fp != got.FinalFingerprint {
			return fmt.Errorf("daemon ended %s on state %.12s, the library on %.12s", got.ExecID, got.FinalFingerprint, fp)
		}
	}
	end := tr.span("server.encode")
	_, err = json.Marshal(got)
	end()
	if err != nil {
		return err
	}
	if string(res.State) != got.State {
		return fmt.Errorf("daemon state %s differs from the library's %s", got.State, res.State)
	}
	return nil
}

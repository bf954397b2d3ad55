// Package controller implements Centralium's application layer (Section 5):
// use-case applications that compile operator intent into per-switch RPA
// configs, pre/post-deployment health checks, and the coordinated,
// layer-ordered rollout of Section 5.3.2 that prevents transient funneling
// during deployment. State flows through NSDB; deployment goes through a
// pluggable backend (the Switch Agent RPC in the full stack, or a direct
// fabric hook in experiments).
package controller

import (
	"context"
	"fmt"
	"maps"
	"sort"

	"centralium/internal/core"
	"centralium/internal/nsdb"
	"centralium/internal/topo"
)

// Intent is a per-device RPA assignment produced by an application.
type Intent map[topo.DeviceID]*core.Config

// Merge combines two intents; devices present in both get merged configs
// (orthogonal RPAs compose by concatenation).
func (in Intent) Merge(other Intent) Intent {
	out := make(Intent, len(in)+len(other))
	maps.Copy(out, in)
	for d, c := range other {
		if prev, ok := out[d]; ok {
			c = prev.Merge(c)
		}
		out[d] = c
	}
	return out
}

// Devices returns the intent's target devices, sorted.
func (in Intent) Devices() []topo.DeviceID {
	out := make([]topo.DeviceID, 0, len(in))
	for d := range in {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks every per-device config.
func (in Intent) Validate() error { return Rollout{Intent: in}.validate() }

// Compile compiles every config of the intent, once each, in sorted device
// order — the one compile loop of a caller that shares an intent's programs
// (Rollout.Compiled) across many rollouts. A config for which have holds a
// program compiled from that very *core.Config (as Rollout.Compiled) takes
// that program and compiles nothing; have may be nil. A config that does not
// compile is left out of the programs; the first such error in device order
// comes back beside the programs that did compile.
func (in Intent) Compile(have map[topo.DeviceID]*core.Program) (map[topo.DeviceID]*core.Program, error) {
	progs := make(map[topo.DeviceID]*core.Program, len(in))
	var first error
	for _, d := range in.Devices() {
		if prog := compiledFor(have, d, in[d]); prog != nil {
			progs[d] = prog
			continue
		}
		prog, err := core.Compile(in[d])
		if err != nil {
			if first == nil {
				first = fmt.Errorf("intent for %s: %w", d, err)
			}
			continue
		}
		progs[d] = prog
	}
	return progs, first
}

// TotalLOC sums the generated RPA line counts (the Table 3 "RPA LOC"
// metric).
func (in Intent) TotalLOC() int {
	total := 0
	for _, cfg := range in {
		total += cfg.LOC()
	}
	return total
}

// HealthCheck is one pre- or post-deployment verification step.
type HealthCheck struct {
	Name  string
	Check func() error
}

// DeployFunc pushes one device's config; the full stack routes this through
// the Switch Agent, experiments bind it straight to the fabric.
type DeployFunc func(device topo.DeviceID, cfg *core.Config) error

// ProgramDeployer is a deployment backend with two paths: one for a config,
// which compiles it, and one for an already compiled program.
type ProgramDeployer interface {
	DeployRPA(device topo.DeviceID, cfg *core.Config) error
	DeployProgram(device topo.DeviceID, prog *core.Program)
}

// DeployCompiled is the DeployFunc over b that deploys a push of the config
// compiled[d] was compiled from as that program (nothing compiles), and any
// other push as a config. Pair it with the same map as Rollout.Compiled.
func DeployCompiled(compiled map[topo.DeviceID]*core.Program, b ProgramDeployer) DeployFunc {
	return func(d topo.DeviceID, cfg *core.Config) error {
		if prog := compiledFor(compiled, d, cfg); prog != nil {
			b.DeployProgram(d, prog)
			return nil
		}
		return b.DeployRPA(d, cfg)
	}
}

// Controller coordinates RPA rollouts across the fleet.
type Controller struct {
	Topo *topo.Topology
	// DB is optional; when set, intended/current state is tracked in NSDB
	// and straggler detection is available.
	DB     *nsdb.Cluster
	Deploy DeployFunc

	// Settle, when set, runs between deployment waves (layers) to let the
	// distributed control plane converge before the next layer changes —
	// the gating of Section 5.3.2. Experiments bind it to Converge.
	Settle func()

	// Fetch, when set, reads a device's currently-deployed config from the
	// backend (nil when the device carries none). Rollout.UnwindOnFailure
	// needs it to capture prior configs before overwriting them.
	Fetch func(device topo.DeviceID) *core.Config

	// BackendUpdatesCurrent marks the deployment backend as responsible
	// for publishing current state into NSDB (the Switch Agent does this
	// after a successful RPC). When false, Run publishes current itself —
	// which makes straggler detection a formality. Only with a
	// truth-reporting backend do the slow-roll gate and the final
	// consistency check detect real stragglers.
	BackendUpdatesCurrent bool

	deployments int
}

// Deployments counts per-device deployments performed.
func (c *Controller) Deployments() int { return c.deployments }

// Rollout is one coordinated deployment of an intent.
type Rollout struct {
	Intent Intent

	// Compiled, when set, holds configs of Intent the caller has already
	// compiled — a compile is the validation — keyed by device. The
	// pre-flight skips a device whose program here is of the very config the
	// intent pushes to it (Program.Config() is that pointer).
	Compiled map[topo.DeviceID]*core.Program

	// OriginAltitude is the altitude of the layer originating the affected
	// routes (5 for backbone-originated prefixes). Deployment order is
	// farthest-from-origin first; removal is closest-first (Section 5.3.2).
	OriginAltitude int

	// Removal marks this rollout as removing RPAs (reverses the order).
	Removal bool

	// SettlePerDevice runs the Settle hook after every device rather than
	// after every wave — the realistic cadence when devices pick up an RPA
	// one at a time. With correct sequencing this is safe because each
	// wave's downstream layers already carry the RPA (Section 5.3.2); the
	// Figure 10 experiment uses it to expose the uncoordinated hazard.
	SettlePerDevice bool

	// MaxStragglerFraction, when positive, implements the Section 5.1
	// slow roll: after each wave, if more than this fraction of the
	// devices deployed so far are out-of-sync (current != intended in
	// NSDB), the rollout aborts instead of pushing further. Requires a
	// DB-attached controller with a truth-reporting backend.
	MaxStragglerFraction float64

	// Schedule, when non-nil, overrides the altitude-derived wave order
	// with an explicit deployment schedule: each inner slice is one wave,
	// deployed in order. Devices not present in the intent are dropped.
	// This is how the campaign planner (internal/planner) pushes a
	// searched schedule through the same rollout path the §5.3.2 default
	// uses, and how the random-order ablation arm runs.
	Schedule [][]topo.DeviceID

	// Approval, when set, is consulted with the final wave schedule after
	// the pre-deployment checks pass and before the first device is
	// touched. An error blocks the rollout. The planner's Approver binds
	// here so a gate (qualify.Gate) can demand a planner-approved
	// schedule in front of every live push.
	Approval func(waves [][]topo.DeviceID) error

	// UnwindOnFailure restores the prior config of every device already
	// touched — in reverse deployment order, the Section 5.3.2 removal
	// order — when the rollout fails mid-campaign, so a partial push never
	// strands the fabric between states. Requires Controller.Fetch to
	// capture prior configs; without it the rollout fails in place as
	// before. The unwind is best-effort: its first error is folded into
	// the returned error.
	UnwindOnFailure bool

	// Pre and Post health checks (Section 5: controller functions 1 and 4).
	Pre, Post []HealthCheck
}

// compiledFor is the rule that lets a caller's compile stand for a
// device's: compiled[d] counts only when it was compiled from cfg itself
// (Program.Config() is that very pointer). Nil otherwise.
func compiledFor(compiled map[topo.DeviceID]*core.Program, d topo.DeviceID, cfg *core.Config) *core.Program {
	if prog := compiled[d]; prog != nil && prog.Config() == cfg {
		return prog
	}
	return nil
}

// validate is the rollout's pre-flight: every config of the intent must
// compile. One the caller compiled already (Compiled) has.
func (r Rollout) validate() error {
	for d, cfg := range r.Intent {
		if compiledFor(r.Compiled, d, cfg) != nil {
			continue
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("controller: intent for %s: %w", d, err)
		}
	}
	return nil
}

// Waves returns the deployment batches in order: devices grouped by layer,
// ordered by distance from the origin altitude (descending for deployment,
// ascending for removal), with deterministic order within a wave. An
// explicit Rollout.Schedule short-circuits the altitude derivation.
func (c *Controller) Waves(r Rollout) [][]topo.DeviceID {
	if r.Schedule != nil {
		waves := make([][]topo.DeviceID, 0, len(r.Schedule))
		for _, wave := range r.Schedule {
			var kept []topo.DeviceID
			for _, d := range wave {
				if _, ok := r.Intent[d]; ok {
					kept = append(kept, d)
				}
			}
			if len(kept) > 0 {
				waves = append(waves, kept)
			}
		}
		return waves
	}
	byDist := make(map[int][]topo.DeviceID)
	for _, d := range r.Intent.Devices() {
		dev := c.Topo.Device(d)
		if dev == nil {
			continue
		}
		dist := dev.Layer.Altitude() - r.OriginAltitude
		if dist < 0 {
			dist = -dist
		}
		byDist[dist] = append(byDist[dist], d)
	}
	dists := make([]int, 0, len(byDist))
	for d := range byDist {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	if !r.Removal {
		// Deployment: farthest first.
		for i, j := 0, len(dists)-1; i < j; i, j = i+1, j-1 {
			dists[i], dists[j] = dists[j], dists[i]
		}
	}
	waves := make([][]topo.DeviceID, 0, len(dists))
	for _, d := range dists {
		waves = append(waves, byDist[d])
	}
	return waves
}

// Run executes the rollout: pre-checks, intent publication, wave-ordered
// deployment with settling between waves, then post-checks including
// straggler detection when NSDB is attached. The first error aborts.
// Run is RunCtx under a background context.
func (c *Controller) Run(r Rollout) error {
	return c.RunCtx(context.Background(), r)
}

// RunCtx is Run under a context: cancellation or deadline expiry is
// checked before every device and aborts the rollout with the context's
// error. An abort — context or otherwise — after devices have been
// touched triggers the reverse-order unwind when Rollout.UnwindOnFailure
// is set.
func (c *Controller) RunCtx(ctx context.Context, r Rollout) error {
	if c.Deploy == nil {
		return fmt.Errorf("controller: no deployment backend")
	}
	if err := r.validate(); err != nil {
		return err
	}
	if r.UnwindOnFailure && c.Fetch == nil {
		return fmt.Errorf("controller: UnwindOnFailure needs Controller.Fetch to capture prior configs")
	}
	for _, hc := range r.Pre {
		if err := hc.Check(); err != nil {
			return fmt.Errorf("controller: pre-deployment check %q failed: %w", hc.Name, err)
		}
	}
	if r.Approval != nil {
		if err := r.Approval(c.Waves(r)); err != nil {
			return fmt.Errorf("controller: schedule approval failed: %w", err)
		}
	}
	// Publish intent so the consistency loop can detect stragglers.
	if c.DB != nil {
		for dev, cfg := range r.Intent {
			c.DB.Publish(nsdb.Intended, nsdb.DevicePath(string(dev), "rpa"), cfg)
		}
	}
	var (
		deployedSoFar []topo.DeviceID
		prior         map[topo.DeviceID]*core.Config
	)
	if r.UnwindOnFailure {
		prior = make(map[topo.DeviceID]*core.Config)
	}
	// fail wraps an error, unwinding the partial deployment first when the
	// rollout asked for it.
	fail := func(err error) error {
		if !r.UnwindOnFailure || len(deployedSoFar) == 0 {
			return err
		}
		if uerr := c.unwind(r, deployedSoFar, prior); uerr != nil {
			return fmt.Errorf("%w (unwind incomplete: %v)", err, uerr)
		}
		return fmt.Errorf("%w (unwound %d deployed device(s) to prior configs)", err, len(deployedSoFar))
	}
	for _, wave := range c.Waves(r) {
		for _, dev := range wave {
			if err := ctx.Err(); err != nil {
				return fail(fmt.Errorf("controller: rollout cancelled before %s: %w", dev, err))
			}
			if r.UnwindOnFailure {
				if cfg := c.Fetch(dev); cfg != nil {
					prior[dev] = cfg
				}
			}
			if err := c.Deploy(dev, r.Intent[dev]); err != nil {
				return fail(fmt.Errorf("controller: deploy to %s: %w", dev, err))
			}
			c.deployments++
			deployedSoFar = append(deployedSoFar, dev)
			if c.DB != nil && !c.BackendUpdatesCurrent {
				c.DB.Publish(nsdb.Current, nsdb.DevicePath(string(dev), "rpa"), r.Intent[dev])
			}
			if r.SettlePerDevice && c.Settle != nil {
				c.Settle()
			}
		}
		if c.Settle != nil {
			c.Settle()
		}
		if r.MaxStragglerFraction > 0 && c.DB != nil {
			if frac, stragglers := c.stragglerFraction(r.Intent, deployedSoFar); frac > r.MaxStragglerFraction {
				return fail(fmt.Errorf("controller: slow-roll gate tripped: %.0f%% of deployed devices out-of-sync (%v)",
					frac*100, stragglers))
			}
		}
	}
	for _, hc := range r.Post {
		if err := hc.Check(); err != nil {
			return fail(fmt.Errorf("controller: post-deployment check %q failed: %w", hc.Name, err))
		}
	}
	if c.DB != nil {
		if stragglers := c.Stragglers(); len(stragglers) > 0 {
			return fail(fmt.Errorf("controller: %d stragglers after rollout: %v", len(stragglers), stragglers))
		}
	}
	return nil
}

// unwind restores the prior config of every deployed device in reverse
// deployment order — the Section 5.3.2 removal order, closest to the
// origin first — then settles once so the fabric reconverges on the
// pre-rollout state. Devices that carried no config before the rollout
// get an empty one (removing the RPA behavior).
func (c *Controller) unwind(r Rollout, deployed []topo.DeviceID, prior map[topo.DeviceID]*core.Config) error {
	var firstErr error
	for i := len(deployed) - 1; i >= 0; i-- {
		dev := deployed[i]
		cfg := prior[dev]
		if cfg == nil {
			cfg = &core.Config{}
		}
		if err := c.Deploy(dev, cfg); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("redeploy prior config to %s: %w", dev, err)
			}
			continue
		}
		c.deployments++
		if c.DB != nil {
			// Re-point intent at the restored config so the consistency
			// loop does not report the unwound devices as stragglers.
			c.DB.Publish(nsdb.Intended, nsdb.DevicePath(string(dev), "rpa"), cfg)
			if !c.BackendUpdatesCurrent {
				c.DB.Publish(nsdb.Current, nsdb.DevicePath(string(dev), "rpa"), cfg)
			}
		}
		if r.SettlePerDevice && c.Settle != nil {
			c.Settle()
		}
	}
	if c.Settle != nil {
		c.Settle()
	}
	return firstErr
}

// stragglerFraction computes the out-of-sync fraction among the devices
// deployed so far (the slow-roll gate's input).
func (c *Controller) stragglerFraction(intent Intent, deployed []topo.DeviceID) (float64, []topo.DeviceID) {
	if len(deployed) == 0 {
		return 0, nil
	}
	leader := c.DB.Leader()
	if leader == nil {
		return 1, deployed // no NSDB view at all: assume the worst
	}
	var stragglers []topo.DeviceID
	for _, dev := range deployed {
		path := nsdb.DevicePath(string(dev), "rpa")
		cur, ok := leader.Store.Get(nsdb.Current, path)
		if !ok {
			stragglers = append(stragglers, dev)
			continue
		}
		want, _ := leader.Store.Get(nsdb.Intended, path)
		if !nsdb.Equal(cur, want) {
			stragglers = append(stragglers, dev)
		}
	}
	return float64(len(stragglers)) / float64(len(deployed)), stragglers
}

// Stragglers returns devices whose current RPA differs from intended — the
// continuous consistency guarantee of Section 5.1. Empty without NSDB.
func (c *Controller) Stragglers() []string {
	if c.DB == nil {
		return nil
	}
	leader := c.DB.Leader()
	if leader == nil {
		return nil
	}
	var out []string
	for _, path := range leader.Store.OutOfSync("/devices/*/rpa") {
		out = append(out, path)
	}
	return out
}

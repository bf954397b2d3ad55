package chaos

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// Arm selects the experimental arm: the native protocol or the
// RPA-protected rollout.
type Arm int

// Arms.
const (
	ArmNative Arm = iota
	ArmRPA
)

// String names the arm.
func (a Arm) String() string {
	if a == ArmRPA {
		return "rpa"
	}
	return "native"
}

// Scenarios lists the migration scenarios Run accepts.
func Scenarios() []string { return []string{"decommission", "pod-drain"} }

// RunParams configures one chaos run.
type RunParams struct {
	// Scenario is one of Scenarios().
	Scenario string
	Arm      Arm
	// Seed drives everything: topology jitter, fault plan, and fault
	// targets. Same params, same bytes out.
	Seed int64
	// Faults is the planned injection count (default 4; suppression may
	// fire fewer).
	Faults int
	// Grace is the post-fault reconvergence allowance (default 150ms).
	Grace time.Duration

	// CheckpointDir, when set, auto-drops a snapshot of the last clean
	// pre-migration quiescent point whenever the run ends unhealthy
	// (effective violations or quiescent breaches). The snapshot carries
	// the run parameters in its metadata, so Replay reproduces the failing
	// run byte-for-byte from the file alone.
	CheckpointDir string
}

// RunResult summarizes one chaos run.
type RunResult struct {
	Scenario string
	Arm      Arm
	Seed     int64

	FaultsInjected   int
	FaultsSuppressed int

	// RawViolations counts every continuous-check violation sample;
	// EffectiveViolations counts only those outside fault disturbance
	// windows. A healthy RPA arm has zero effective violations; a native
	// arm shows raw violations from the migration itself.
	RawViolations       int
	EffectiveViolations int

	// Quiescent holds the invariant breaches found after full
	// convergence; empty on a healthy run of either arm.
	Quiescent []Violation

	Events int64

	// Log is the canonical event stream of the run — plan, injections,
	// violation transitions, quiescent findings, summary — byte-identical
	// across runs of the same params.
	Log string

	// Checkpoint is the path of the auto-dropped snapshot (empty when the
	// run was healthy or CheckpointDir was unset).
	Checkpoint string
}

// Run executes one migration scenario under chaos: build and converge the
// rig, deploy the protective RPA (RPA arm only, through the possibly
// delayed push path), arm the seeded faults, attach the continuous
// monitor, run the migration to quiescence, then sweep the full invariant
// suite.
func Run(p RunParams) (RunResult, error) {
	var rig *migrate.ChaosRig
	switch p.Scenario {
	case "decommission":
		rig = migrate.DecommissionRig(p.Seed)
	case "pod-drain":
		rig = migrate.PodDrainRig(p.Seed)
	default:
		return RunResult{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", p.Scenario, Scenarios())
	}
	return runOnRig(rig, p)
}

// BaseNet builds a scenario's pre-migration steady-state network — the
// state a chaos checkpoint captures — without running any migration.
// Callers snapshot it once and fork per arm/seed to warm-start sweeps.
func BaseNet(scenario string, seed int64) (*fabric.Network, error) {
	switch scenario {
	case "decommission":
		return migrate.DecommissionRig(seed).Net, nil
	case "pod-drain":
		return migrate.PodDrainRig(seed).Net, nil
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (have %v)", scenario, Scenarios())
}

// RunOn executes the run on an existing network holding the scenario's
// pre-migration steady state — typically a restored chaos checkpoint. The
// fault plan, injections, and monitors re-derive deterministically from the
// network and seed, so RunOn on a restored checkpoint reproduces the
// original run's log byte-for-byte.
func RunOn(n *fabric.Network, p RunParams) (RunResult, error) {
	rig, err := migrate.RigOn(p.Scenario, n)
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos: %w", err)
	}
	return runOnRig(rig, p)
}

func runOnRig(rig *migrate.ChaosRig, p RunParams) (RunResult, error) {
	n := rig.Net

	// Capture the last clean quiescent point up front (cheap: state only,
	// no disk) so an unhealthy ending can drop it for replay.
	var checkpoint *snapshot.Snapshot
	if p.CheckpointDir != "" {
		var err error
		checkpoint, err = snapshot.Capture(n)
		if err != nil {
			return RunResult{}, fmt.Errorf("chaos: pre-migration checkpoint: %w", err)
		}
	}

	plan := NewPlan(n, p.Seed, PlanOptions{Count: p.Faults, Span: rig.Span + 30*time.Millisecond})
	inj := NewInjector(n, plan, p.Grace)

	if p.Arm == ArmRPA {
		push := inj.WrapDeploy(func(dev topo.DeviceID, cfg *core.Config) error {
			return n.DeployRPA(dev, cfg)
		})
		if err := rig.DeployRPA(push); err != nil {
			return RunResult{}, fmt.Errorf("chaos: %s RPA rollout: %w", rig.Name, err)
		}
		n.Converge()
	}

	cfg := CheckConfig{Net: n, Demands: rig.Demands, Prefixes: rig.Prefixes, Protected: rig.Protected}
	mon := NewMonitor(cfg, inj)
	mon.Attach()

	inj.Arm()
	rig.Migration()
	events := n.Converge()

	quiescent := CheckQuiescent(cfg)

	res := RunResult{
		Scenario:            rig.Name,
		Arm:                 p.Arm,
		Seed:                p.Seed,
		FaultsInjected:      inj.Injected(),
		FaultsSuppressed:    inj.Suppressed(),
		RawViolations:       mon.Raw(),
		EffectiveViolations: mon.Effective(),
		Quiescent:           quiescent,
		Events:              events,
	}

	var b strings.Builder
	fmt.Fprintf(&b, "chaos scenario=%s arm=%s seed=%d planned=%d push-delay=%s\n",
		res.Scenario, res.Arm, res.Seed, len(plan.Faults), plan.PushDelay)
	for _, f := range plan.Faults {
		fmt.Fprintf(&b, "plan %s\n", f)
	}
	for _, l := range inj.Log() {
		fmt.Fprintf(&b, "%s\n", l)
	}
	for _, l := range mon.Transitions() {
		fmt.Fprintf(&b, "%s\n", l)
	}
	for _, v := range quiescent {
		fmt.Fprintf(&b, "quiescent %s\n", v)
	}
	fmt.Fprintf(&b, "summary injected=%d suppressed=%d raw=%d effective=%d quiescent=%d events=%d t=%d\n",
		res.FaultsInjected, res.FaultsSuppressed, res.RawViolations, res.EffectiveViolations,
		len(quiescent), events, n.Now())
	res.Log = b.String()

	if checkpoint != nil && (res.EffectiveViolations > 0 || len(res.Quiescent) > 0) {
		checkpoint.Meta[metaScenario] = rig.Name
		checkpoint.Meta[metaArm] = p.Arm.String()
		checkpoint.Meta[metaSeed] = strconv.FormatInt(p.Seed, 10)
		checkpoint.Meta[metaFaults] = strconv.Itoa(p.Faults)
		checkpoint.Meta[metaGrace] = p.Grace.String()
		path := filepath.Join(p.CheckpointDir,
			fmt.Sprintf("chaos-%s-%s-seed%d.csnp", rig.Name, p.Arm, p.Seed))
		if err := checkpoint.Save(path); err != nil {
			return res, fmt.Errorf("chaos: save checkpoint: %w", err)
		}
		res.Checkpoint = path
	}
	return res, nil
}

// Snapshot metadata keys carrying the run parameters of an auto-dropped
// chaos checkpoint.
const (
	metaScenario = "chaos.scenario"
	metaArm      = "chaos.arm"
	metaSeed     = "chaos.seed"
	metaFaults   = "chaos.faults"
	metaGrace    = "chaos.grace"
)

// Replay loads an auto-dropped chaos checkpoint and re-runs the failing
// run from its last clean quiescent point: restore the pre-migration
// state, re-derive the fault plan from the stored seed, and run the
// migration under the same injections. The returned result — log included
// — is byte-identical to the run that dropped the checkpoint.
func Replay(path string) (RunResult, error) {
	snap, err := snapshot.Load(path)
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos: %w", err)
	}
	scenario := snap.Meta[metaScenario]
	if scenario == "" {
		return RunResult{}, fmt.Errorf("chaos: %s is not a chaos checkpoint (missing %s metadata)", path, metaScenario)
	}
	p := RunParams{Scenario: scenario}
	if snap.Meta[metaArm] == ArmRPA.String() {
		p.Arm = ArmRPA
	}
	if p.Seed, err = strconv.ParseInt(snap.Meta[metaSeed], 10, 64); err != nil {
		return RunResult{}, fmt.Errorf("chaos: checkpoint metadata %s: %w", metaSeed, err)
	}
	if p.Faults, err = strconv.Atoi(snap.Meta[metaFaults]); err != nil {
		return RunResult{}, fmt.Errorf("chaos: checkpoint metadata %s: %w", metaFaults, err)
	}
	if p.Grace, err = time.ParseDuration(snap.Meta[metaGrace]); err != nil {
		return RunResult{}, fmt.Errorf("chaos: checkpoint metadata %s: %w", metaGrace, err)
	}
	n, err := snap.Restore()
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos: %w", err)
	}
	return RunOn(n, p)
}

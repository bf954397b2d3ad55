package planner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/probe"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// Score is the planner's safety-ordered schedule cost. Fields accumulate
// over the schedule's steps plus the terminal migration phase.
type Score struct {
	// BlackholeNs is the integrated virtual time during which the
	// workload's black-holed fraction exceeded the epsilon — the
	// black-hole window duration.
	BlackholeNs int64 `json:"blackhole_ns"`
	// PeakShare is the worst transient traffic share observed on any
	// watched device (the funneling metric of Figures 2/4/10).
	PeakShare float64 `json:"peak_share"`
	// ConvergeNs is the total virtual time the schedule consumed.
	ConvergeNs int64 `json:"converge_ns"`
	// PeakNHG is the worst next-hop-group occupancy seen in FIB writes.
	PeakNHG int `json:"peak_nhg"`
	// Churn counts routing events (Adj-RIB-In + best-path) on the tap.
	Churn int64 `json:"churn"`
	// Alerts counts pathology-detector alerts fired during evaluation.
	Alerts int `json:"alerts"`
	// Steps is the schedule length.
	Steps int `json:"steps"`
}

// Cmp is the planner's total preorder, safety-first: black-hole window,
// then peak funneling, then convergence time, then NHG pressure, churn,
// and schedule length. Ties are broken by the caller on the canonical
// schedule text, which makes selection fully deterministic.
func (s Score) Cmp(o Score) int {
	switch {
	case s.BlackholeNs != o.BlackholeNs:
		return cmpI64(s.BlackholeNs, o.BlackholeNs)
	case s.PeakShare != o.PeakShare:
		return cmpF64(s.PeakShare, o.PeakShare)
	case s.ConvergeNs != o.ConvergeNs:
		return cmpI64(s.ConvergeNs, o.ConvergeNs)
	case s.PeakNHG != o.PeakNHG:
		return cmpI64(int64(s.PeakNHG), int64(o.PeakNHG))
	case s.Churn != o.Churn:
		return cmpI64(s.Churn, o.Churn)
	default:
		return cmpI64(int64(s.Steps), int64(o.Steps))
	}
}

func cmpI64(a, b int64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

func cmpF64(a, b float64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

func (s Score) String() string {
	return fmt.Sprintf("blackhole=%.2fms peak-share=%.3f converge=%.2fms nhg=%d churn=%d alerts=%d steps=%d",
		float64(s.BlackholeNs)/1e6, s.PeakShare, float64(s.ConvergeNs)/1e6, s.PeakNHG, s.Churn, s.Alerts, s.Steps)
}

// add folds one phase outcome into the accumulated score.
func (s Score) add(o StepOutcome, countStep bool) Score {
	s.BlackholeNs += o.BlackholeNs
	if o.PeakShare > s.PeakShare {
		s.PeakShare = o.PeakShare
	}
	s.ConvergeNs += o.ConvergeNs
	if o.PeakNHG > s.PeakNHG {
		s.PeakNHG = o.PeakNHG
	}
	s.Churn += o.Churn
	s.Alerts += o.Alerts
	if countStep {
		s.Steps++
	}
	return s
}

// StepOutcome is the measured transient of one schedule phase (a
// deployment wave, or the terminal migration phase) on a fork.
type StepOutcome struct {
	Label       string  `json:"label"`
	BlackholeNs int64   `json:"blackhole_ns"`
	PeakShare   float64 `json:"peak_share"`
	ConvergeNs  int64   `json:"converge_ns"`
	PeakNHG     int     `json:"peak_nhg"`
	Churn       int64   `json:"churn"`
	Alerts      int     `json:"alerts"`
	Events      int64   `json:"events"`
}

// Report is a full per-phase breakdown of one schedule's evaluation — the
// `centralium plan explain` view.
type Report struct {
	Schedule Schedule
	Phases   []StepOutcome
	Total    Score
}

func (r *Report) String() string {
	var b []byte
	b = fmt.Appendf(b, "%-44s %10s %11s %10s %6s %7s %7s\n",
		"phase", "peak-share", "blackhole", "converge", "nhg", "churn", "alerts")
	for _, ph := range r.Phases {
		b = fmt.Appendf(b, "%-44s %10.3f %9.2fms %8.2fms %6d %7d %7d\n",
			truncLabel(ph.Label, 44), ph.PeakShare, float64(ph.BlackholeNs)/1e6,
			float64(ph.ConvergeNs)/1e6, ph.PeakNHG, ph.Churn, ph.Alerts)
	}
	b = fmt.Appendf(b, "total: %s\n", r.Total)
	return string(b)
}

func truncLabel(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// fingerprint hashes an encoded snapshot — the memoization key. Encoding
// is deterministic (equal states produce equal bytes), so the hash is a
// true state identity.
func fingerprint(state []byte) string {
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}

// Executor pushes schedule steps through the real rollout path
// (controller.ExecuteCtx, one one-wave rollout per step) under the one
// transient probe. A search or a guarded campaign builds one, once: it holds
// the intent and its compiled programs, the workload the probe measures and
// the origin altitude. A step that pushes the intent's own config for a
// device deploys that program, and neither the rollout's pre-flight nor the
// speaker compiles it again; a step that edits a copy (Bare, MinNextHop)
// compiles its copy as any other caller would.
//
// There is one measurement cadence: every device settles before the next
// one is pushed, and the probe samples every change of forwarding state.
// The search's evaluator and the execution guard both run their steps
// through an Executor, so a clean guarded wave measures exactly what the
// planner scored for the same step (guard's TestPlanMatchesExecute).
type Executor struct {
	intent         controller.Intent
	programs       map[topo.DeviceID]*core.Program
	workload       probe.Workload
	originAltitude int
}

// NewExecutor compiles every config of intent, once, into an Executor. A
// config for which compiled holds a program compiled from that very
// *core.Config is not compiled again (controller.Intent.Compile); compiled
// may be nil.
func NewExecutor(intent controller.Intent, compiled map[topo.DeviceID]*core.Program, w probe.Workload, originAltitude int) (*Executor, error) {
	programs, err := intent.Compile(compiled)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	return &Executor{intent: intent, programs: programs, workload: w, originAltitude: originAltitude}, nil
}

// Execute pushes steps on n and returns what the probe measured — on error,
// up to the failure. Per-fork measurement is deterministic; the planner's
// parallelism lives one level up, across candidate forks.
func (x *Executor) Execute(ctx context.Context, n *fabric.Network, steps []Step) (probe.Metrics, error) {
	pb := probe.NewTransient(n, x.workload)
	events := int64(0)
	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: controller.DeployCompiled(x.programs, n),
		Settle: func() { events += n.Converge() },
	}
	var err error
	for _, st := range steps {
		if err = ctl.ExecuteCtx(ctx, controller.OrchestratedChange{
			Name: "schedule step",
			Rollout: controller.Rollout{
				Intent:          st.Intent(x.intent),
				Compiled:        x.programs,
				OriginAltitude:  x.originAltitude,
				Schedule:        [][]topo.DeviceID{st.Devices},
				SettlePerDevice: true,
			},
		}); err != nil {
			break
		}
	}
	return pb.Finish(events), err
}

// Workload is the probe workload a search with these parameters measures
// every step under, defaults applied.
func (p Params) Workload() probe.Workload {
	p.setDefaults()
	return probe.Workload{
		Demands:      p.Demands,
		Watch:        p.Watch,
		FairShare:    p.FairShare,
		BlackholeEps: p.BlackholeEps,
	}
}

// outcome is the planner's subset of a finished measurement.
func outcome(label string, m probe.Metrics) StepOutcome {
	return StepOutcome{
		Label:       label,
		BlackholeNs: m.BlackholeNs,
		PeakShare:   m.PeakShare,
		ConvergeNs:  m.ConvergeNs,
		PeakNHG:     m.PeakNHG,
		Churn:       m.Churn,
		Alerts:      m.Alerts,
		Events:      m.Events,
	}
}

// evaluator owns the fork/instrument/execute machinery shared by the beam
// search, the exhaustive baseline, and schedule scoring.
type evaluator struct {
	p *Params
	x *Executor // p's intent compiled and its workload: what every fork runs
}

// live returns snap, or, when the search holds the state only as bytes (after
// a resume, or a memo entry of an earlier level), decodes it: the bytes
// become the decoded snapshot's rendering.
func (e *evaluator) live(snap *snapshot.Snapshot, state []byte) (*snapshot.Snapshot, error) {
	if snap != nil {
		return snap, nil
	}
	snap, err := snapshot.DecodeRendered(state)
	if err != nil {
		return nil, fmt.Errorf("planner: decode state: %w", err)
	}
	return snap, nil
}

// evalStep forks the parent state, pushes one wave through the Executor,
// and returns the measured transient with the child state, captured against
// parent: live, and as the bytes and fingerprint the memo and the checkpoint
// keep. It only reads parent, so the pool evaluates every candidate of a beam
// node against one snapshot.
func (e *evaluator) evalStep(parent *snapshot.Snapshot, st Step) (memoEntry, error) {
	n, err := parent.Restore()
	if err != nil {
		return memoEntry{}, err
	}
	m, err := e.x.Execute(context.Background(), n, []Step{st})
	if err != nil {
		return memoEntry{}, fmt.Errorf("planner: step %q: %w", st.String(), err)
	}
	child, err := snapshot.CaptureFrom(parent, n)
	if err != nil {
		return memoEntry{}, fmt.Errorf("planner: capture: %w", err)
	}
	state, fp, err := canonical(child)
	if err != nil {
		return memoEntry{}, err
	}
	return memoEntry{out: outcome(st.String(), m), snap: child, child: state, fp: fp}, nil
}

// evalMigration forks the fully-deployed state and runs the terminal
// phase: first finalize — the intent must actually hold before the
// migration body, so devices whose live RPA config still differs from
// the intent (bare waves, transient MinNextHop overrides) get their true
// configs pushed now, all at once, and the schedule is charged for that
// unsequenced transient — then the scenario's staggered drains,
// measuring the post-deployment hazard the schedule was supposed to
// protect. The finalize set is derived from the restored state alone, so
// memoizing by state fingerprint stays sound.
func (e *evaluator) evalMigration(snap *snapshot.Snapshot) (StepOutcome, error) {
	n, err := snap.Restore()
	if err != nil {
		return StepOutcome{}, err
	}
	pb := probe.NewTransient(n, e.x.workload)
	stagger := e.p.DrainStaggerNs
	if stagger <= 0 {
		stagger = int64(20 * time.Millisecond)
	}
	var lagged []topo.DeviceID
	for _, d := range sortedDevices(e.p.Intent) {
		if !bytes.Equal(n.Speaker(d).Program().JSON(), e.x.programs[d].JSON()) {
			lagged = append(lagged, d)
		}
	}
	// Catch-up pushes roll one at a time on the virtual clock — config
	// pushes are never fleet-atomic in practice — and in plain device
	// order, not the §5.3.2 sequence: deferring protection buys an
	// unsequenced rollout later, and this is where that bill arrives.
	for i, dev := range lagged {
		d := dev
		n.After(time.Duration(int64(i)*stagger), func() { n.DeployProgram(d, e.x.programs[d]) })
	}
	// The drain body starts once the catch-up window closes.
	offset := int64(len(lagged)) * stagger
	for i, dev := range e.p.Drain {
		d := dev
		n.After(time.Duration(offset+int64(i)*stagger), func() { n.SetDrained(d, true) })
	}
	events := int64(0)
	if len(lagged) > 0 || len(e.p.Drain) > 0 {
		events = n.Converge()
	}
	return outcome("migration", pb.Finish(events)), nil
}

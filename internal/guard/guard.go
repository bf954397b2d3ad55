// Package guard is Centralium's execution supervisor: it closes the loop
// between the chaos harness's detection machinery and the snapshot
// plane's restore machinery around a live migration campaign. Each wave
// of a rollout executes on a fork of the last-good snapshot under a
// telemetry probe; a wave whose measured transient leaves the campaign's
// safety envelope is paused, rolled back to last-good, and retried under
// capped exponential (virtual-clock) backoff with an optionally degraded
// shape — smaller batches, a MinNextHop override — until the retry
// budget runs out, at which point the offending devices are quarantined
// and the campaign aborts with a structured incident report. The guard
// journals a checkpoint to a WAL-backed journal before every wave, so a
// killed process resumes the execution to the byte-identical terminal
// state; a process that stays up keeps the Execution itself between calls,
// as it keeps a planner.Search. Everything is deterministic: same snapshot,
// same campaign, same decision log.
package guard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/probe"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// State is a guarded campaign's state-machine node.
type State string

const (
	StateRunning     State = "running"
	StatePaused      State = "paused"
	StateRolledBack  State = "rolled-back"
	StateRetrying    State = "retrying"
	StateQuarantined State = "quarantined"
	StateCompleted   State = "completed"
	StateAborted     State = "aborted"
)

// Transition is one observed state-machine edge (the SSE progress feed).
type Transition struct {
	State   State  `json:"state"`
	Wave    int    `json:"wave"`
	Attempt int    `json:"attempt"`
	Detail  string `json:"detail,omitempty"`
}

// RetryPolicy bounds the remediation loop.
type RetryPolicy struct {
	// MaxRetries is the per-wave retry budget after the first attempt
	// (0 gets 2; negative means no retries).
	MaxRetries int `json:"max_retries"`
	// BackoffBase and BackoffCap shape the capped exponential backoff,
	// in virtual time (defaults 10ms base, 80ms cap).
	BackoffBase time.Duration `json:"backoff_base"`
	BackoffCap  time.Duration `json:"backoff_cap"`
	// NoSplit keeps the original wave shape on retries instead of
	// halving the batch per attempt.
	NoSplit bool `json:"no_split,omitempty"`
	// MinNextHop, when positive, overrides the wave's BgpNativeMinNextHop
	// percentage from the second retry on — the planner's searchable
	// protection threshold, applied as a degraded shape.
	MinNextHop int `json:"min_next_hop,omitempty"`
}

// retries resolves the policy's effective retry budget.
func (p RetryPolicy) retries() int {
	switch {
	case p.MaxRetries < 0:
		return 0
	case p.MaxRetries == 0:
		return 2
	default:
		return p.MaxRetries
	}
}

// backoff is the virtual-time delay before the given retry attempt
// (attempt >= 1).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base, cap := p.BackoffBase, p.BackoffCap
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 80 * time.Millisecond
	}
	b := base
	for i := 1; i < attempt && b < cap; i++ {
		b *= 2
	}
	if b > cap {
		b = cap
	}
	return b
}

// Campaign is one guarded execution: the rollout, the envelope it must
// stay inside, the workload the envelope is judged under, and the
// persistence/observation hooks.
type Campaign struct {
	// Name labels the campaign in logs, checkpoints, and incidents.
	Name string

	// Intent is the rollout's per-device RPA assignment; OriginAltitude
	// anchors the §5.3.2 wave derivation when Schedule is nil.
	Intent         controller.Intent
	OriginAltitude int
	// Compiled, when set, holds programs compiled from configs of
	// CanonicalIntent(Intent), keyed by device (controller.Rollout.Compiled):
	// the campaign deploys them by reference and compiles only the rest.
	// centraliumd's snapshot cache compiles each base's canonical intent once
	// and every campaign on the base shares those programs, read-only.
	Compiled map[topo.DeviceID]*core.Program
	// Schedule, when non-nil, is the explicit wave plan (each step is
	// one wave); nil derives the §5.3.2 layer order.
	Schedule planner.Schedule

	// Envelope is the per-wave safety envelope; the zero envelope is
	// replaced by DefaultEnvelope.
	Envelope Envelope
	// Retry bounds the remediation loop.
	Retry RetryPolicy

	// Workload is what the probe measures the envelope against: the
	// planner's, defaults applied (planner.Params.Workload).
	Workload probe.Workload

	// Instrument, when set, runs on the quiescent fork immediately
	// before each wave attempt executes — the chaos conformance suite's
	// fault-injection point. It must only arm virtual-clock callbacks
	// (fabric.Network.After), never process events itself.
	Instrument func(n *fabric.Network, wave, attempt int)

	// OnTransition observes every state-machine edge.
	OnTransition func(tr Transition)

	// Journal and Objects persist checkpoints and last-good snapshots;
	// either may be nil (Run still works, Resume needs Objects).
	Journal Journal
	Objects ObjectStore

	// MaxWaves, when positive, pauses Run or Resume after that many waves
	// complete in the call (Execution.Drive takes the bound per call). The
	// returned Result carries the checkpoint to resume from.
	MaxWaves int

	// testHookMetrics, when set (tests only), observes every attempt's
	// measured transient.
	testHookMetrics func(wave, attempt int, m WaveMetrics)
}

// normalize applies defaults in place.
func (c *Campaign) normalize() error {
	if len(c.Intent) == 0 {
		return fmt.Errorf("guard: campaign has no intent")
	}
	if c.Name == "" {
		c.Name = "campaign"
	}
	if c.Envelope == (Envelope{}) {
		c.Envelope = DefaultEnvelope()
	}
	c.Intent = CanonicalIntent(c.Intent)
	return nil
}

// CanonicalIntent is the intent a campaign deploys: in's configs with their
// version tags rewritten to 1..n in sorted device order. Config.Version has
// no behavioral role in the emulated fabric, but it is embedded in every
// deployed config and therefore in every state fingerprint. An intent
// generator tags its configs 1..n in its own generation order, which is not
// sorted device order, so the guard re-tags deterministically, and a
// campaign's states depend on what it deploys, not on how its intent was
// built. A config already carrying its tag is kept as it is — the same
// *core.Config — so a canonical intent is its own canonical form and
// programs compiled from it (Campaign.Compiled) stay valid.
func CanonicalIntent(in controller.Intent) controller.Intent {
	canon := make(controller.Intent, len(in))
	for i, d := range in.Devices() {
		cfg := in[d]
		if v := int64(i + 1); cfg.Version != v {
			tagged := *cfg
			tagged.Version = v
			cfg = &tagged
		}
		canon[d] = cfg
	}
	return canon
}

// FromParams builds a campaign from a planner scenario's parameters, so
// `planner.ScenarioSetup` output guards directly.
func FromParams(p planner.Params) Campaign {
	return Campaign{Intent: p.Intent, Compiled: p.Compiled, OriginAltitude: p.OriginAltitude, Workload: p.Workload()}
}

// Result is a guarded execution's outcome.
type Result struct {
	// State is StateCompleted, StateAborted, or StatePaused (pacing or
	// context expiry; resume with the Checkpoint).
	State State
	// Name echoes the campaign.
	Name string
	// Waves is the campaign's wave count; WavesDone how many completed.
	Waves     int
	WavesDone int
	// Retries and Rollbacks count remediation work across the campaign.
	Retries   int
	Rollbacks int
	// Quarantined lists the offending devices of an aborted campaign.
	Quarantined []string
	// Report is the incident report of an aborted campaign.
	Report *IncidentReport
	// Log is the deterministic decision log.
	Log string
	// Net is the terminal fabric state: the completed campaign's fleet,
	// or the rolled-back last-good fleet of an abort. Nil while paused.
	Net *fabric.Network
	// Snapshot is the terminal (or, paused, last-good) snapshot, rendered
	// (snapshot.CaptureFrom): its encoding and fingerprint are lookups.
	Snapshot *snapshot.Snapshot
	// FinalFP is the terminal state's fingerprint; empty while paused.
	FinalFP string
	// Checkpoint is the latest guard record; Resume accepts it.
	Checkpoint []byte
}

// Run executes the campaign from a quiescent base snapshot.
func Run(ctx context.Context, base *snapshot.Snapshot, c Campaign) (*Result, error) {
	e, err := NewExecution(base, c)
	if err != nil {
		return nil, err
	}
	return e.Drive(ctx, c.MaxWaves)
}

// Resume continues a campaign from a journaled checkpoint (ResumeExecution):
// a terminal checkpoint rebuilds the terminal Result without re-executing
// anything; a mid-campaign checkpoint drives the execution onward to the
// byte-identical terminal state the uninterrupted run would have reached.
func Resume(ctx context.Context, cpData []byte, c Campaign) (*Result, error) {
	e, err := ResumeExecution(cpData, c)
	if err != nil {
		return nil, err
	}
	return e.Drive(ctx, c.MaxWaves)
}

// Execution is one guarded campaign in flight — the guard's planner.Search.
// NewExecution starts one on a base snapshot, ResumeExecution rebuilds one
// from a journaled checkpoint, and Drive advances it. Between Drive calls it
// holds its last-good state rendered, its intent compiled and its waves
// derived, so a caller that keeps it (the daemon, between paced posts)
// continues without decoding, fetching or compiling anything; the checkpoint
// bytes exist for a process that does not have it. After a Drive error the
// execution is mid-wave: discard it and resume from the journal.
type Execution struct {
	c     *Campaign
	waves []planner.Step
	x     *planner.Executor // c's intent compiled and its workload: what every attempt runs

	// lastGood is the authoritative pre-wave state, rendered; (wave, attempt,
	// started) names the next attempt — what the latest checkpoint records.
	lastGood *snapshot.Snapshot
	wave     int
	attempt  int
	started  bool

	log       strings.Builder
	retries   int
	rollbacks int
	lastCP    []byte
	// done is the terminal Result once there is one; Drive returns it again.
	done *Result
}

// NewExecution starts the campaign on a quiescent base snapshot. The campaign
// walks rendered snapshots, starting from a view of base (snapshot.Rendered):
// campaigns and searches running on one base at once share its rendering,
// and base keeps none once the last of them lets go of it.
func NewExecution(base *snapshot.Snapshot, c Campaign) (*Execution, error) {
	e, err := newExecution(base, c)
	if err != nil {
		return nil, err
	}
	if e.lastGood, err = base.Rendered(); err != nil {
		return nil, fmt.Errorf("guard: encode snapshot: %w", err)
	}
	return e, nil
}

// ResumeExecution rebuilds an execution from a journaled checkpoint: the
// campaign definition must match the original and c.Objects must hold the
// checkpoint's snapshot.
func ResumeExecution(cpData []byte, c Campaign) (*Execution, error) {
	cp, err := DecodeCheckpoint(cpData)
	if err != nil {
		return nil, err
	}
	if c.Objects == nil {
		return nil, fmt.Errorf("guard: resume needs an object store")
	}
	fp := cp.LastGood
	if cp.Done {
		fp = cp.FinalFP
	}
	snap, err := fetchSnapshot(c.Objects, fp)
	if err != nil {
		return nil, err
	}
	e, err := newExecution(snap, c)
	if err != nil {
		return nil, err
	}
	if cp.Waves != len(e.waves) {
		return nil, fmt.Errorf("guard: checkpoint has %d waves, campaign derives %d", cp.Waves, len(e.waves))
	}
	if cp.Campaign != e.c.Name {
		return nil, fmt.Errorf("guard: checkpoint is for campaign %q, not %q", cp.Campaign, e.c.Name)
	}
	e.lastGood = snap
	e.wave, e.attempt, e.started = cp.Wave, cp.Attempt, cp.Started
	e.log.WriteString(cp.Log)
	e.retries, e.rollbacks = cp.Retries, cp.Rollbacks
	e.lastCP = append([]byte(nil), cpData...)
	if cp.Done {
		net, err := restore(snap)
		if err != nil {
			return nil, err
		}
		if cp.Aborted {
			e.done = e.result(StateAborted, cp.Wave)
			e.done.Quarantined, e.done.Report = cp.Quarantined, cp.incident(snap.Now())
		} else {
			e.done = e.result(StateCompleted, len(e.waves))
		}
		e.done.Net, e.done.FinalFP = net, cp.FinalFP
	}
	return e, nil
}

// fetchSnapshot loads and decodes a fingerprinted snapshot. The stored
// bytes, written canonical, become the decoded snapshot's rendering, whose
// fingerprint must be the key it was stored under: the object store checks
// its framing, not what the caller filed where.
func fetchSnapshot(objs ObjectStore, fp string) (*snapshot.Snapshot, error) {
	data, ok, err := objs.Get(fp)
	if err != nil {
		return nil, fmt.Errorf("guard: object store: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("guard: snapshot %s missing from object store", short(fp))
	}
	snap, err := snapshot.DecodeRendered(data)
	if err != nil {
		return nil, fmt.Errorf("guard: snapshot %s: %w", short(fp), err)
	}
	if got, err := snap.Fingerprint(); err != nil || got != fp {
		return nil, fmt.Errorf("guard: object %s holds snapshot %s", short(fp), short(got))
	}
	return snap, nil
}

// newExecution normalizes the campaign, compiles its intent and derives its
// waves. The base snapshot supplies the topology; waves come from the
// explicit schedule or the §5.3.2 layer order.
func newExecution(base *snapshot.Snapshot, c Campaign) (*Execution, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	x, err := planner.NewExecutor(c.Intent, c.Compiled, c.Workload, c.OriginAltitude)
	if err != nil {
		return nil, err
	}
	e := &Execution{c: &c, x: x}
	if len(c.Schedule.Steps) > 0 {
		e.waves = c.Schedule.Clone().Steps
	} else {
		tp, err := base.Topology()
		if err != nil {
			return nil, fmt.Errorf("guard: base topology: %w", err)
		}
		ctl := &controller.Controller{Topo: tp}
		e.waves = planner.FromWaves(ctl.Waves(controller.Rollout{
			Intent: c.Intent, OriginAltitude: c.OriginAltitude,
		})).Steps
	}
	if len(e.waves) == 0 {
		return nil, fmt.Errorf("guard: campaign has no waves")
	}
	return e, nil
}

func restore(snap *snapshot.Snapshot) (*fabric.Network, error) {
	n, err := snap.Restore()
	if err != nil {
		return nil, fmt.Errorf("guard: restore: %w", err)
	}
	return n, nil
}

func (e *Execution) logf(format string, args ...any) {
	fmt.Fprintf(&e.log, format+"\n", args...)
}

func (e *Execution) transition(st State, wave, attempt int, detail string) {
	if e.c.OnTransition != nil {
		e.c.OnTransition(Transition{State: st, Wave: wave, Attempt: attempt, Detail: detail})
	}
}

// checkpoint is the guard record of the execution's resume point, with fp
// the last-good state's fingerprint.
func (e *Execution) checkpoint(fp string) *Checkpoint {
	return &Checkpoint{
		Version: checkpointVersion, Campaign: e.c.Name, Waves: len(e.waves),
		Wave: e.wave, Attempt: e.attempt, Started: e.started,
		Retries: e.retries, Rollbacks: e.rollbacks,
		LastGood: fp, Log: e.log.String(),
	}
}

// persist puts the last-good state's encoding in the object store under
// cp.LastGood and journals cp, unless cp is byte-equal to the checkpoint the
// execution last persisted or resumed from.
func (e *Execution) persist(enc []byte, cp *Checkpoint) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	if bytes.Equal(data, e.lastCP) {
		return nil
	}
	if e.c.Objects != nil {
		if err := e.c.Objects.Put(cp.LastGood, enc); err != nil {
			return fmt.Errorf("guard: object store: %w", err)
		}
	}
	e.lastCP = data
	if e.c.Journal != nil {
		if err := e.c.Journal.SaveProgress(cp.Wave, data); err != nil {
			return fmt.Errorf("guard: journal: %w", err)
		}
	}
	return nil
}

// result is the execution's outcome so far, in state st with wavesDone
// waves behind it; terminal callers add what only they know.
func (e *Execution) result(st State, wavesDone int) *Result {
	return &Result{
		State: st, Name: e.c.Name, Waves: len(e.waves), WavesDone: wavesDone,
		Retries: e.retries, Rollbacks: e.rollbacks,
		Log: e.log.String(), Snapshot: e.lastGood, Checkpoint: e.lastCP,
	}
}

// Drive runs the supervisor loop from the execution's resume point with
// lastGood as the authoritative pre-wave state: each wave's surviving fork is
// captured against it, so a state is rendered once, at the cost of what its
// wave touched. It pauses after maxWaves completed waves when maxWaves is
// positive, or when ctx expires mid-wave; the next Drive continues from
// there. A terminal Result is final: every later Drive returns it.
func (e *Execution) Drive(ctx context.Context, maxWaves int) (*Result, error) {
	if e.done != nil {
		return e.done, nil
	}
	maxRetries := e.c.Retry.retries()
	if e.log.Len() == 0 {
		e.logf("guard %s: %d wave(s), envelope [%s], max retries %d",
			e.c.Name, len(e.waves), e.c.Envelope, maxRetries)
	}
	var net *fabric.Network
	for wavesThisCall := 0; e.wave < len(e.waves); wavesThisCall++ {
		w, step := e.wave, e.waves[e.wave]
		enc, fp, err := e.lastGood.EncodeWithFingerprint()
		if err != nil {
			return nil, fmt.Errorf("guard: encode snapshot: %w", err)
		}
		if err := e.persist(enc, e.checkpoint(fp)); err != nil {
			return nil, err
		}
		if maxWaves > 0 && wavesThisCall >= maxWaves {
			e.transition(StatePaused, w, e.attempt, "pacing")
			return e.result(StatePaused, w), nil
		}
		if e.attempt == 0 && !e.started {
			e.logf("wave %d [%s]: start (last-good %s)", w, devList(step.Devices), short(fp))
		}
		e.started = true
		for {
			attempt := e.attempt
			steps := degradedShape(step, attempt, e.c.Retry)
			shape := planner.Schedule{Steps: steps}.String()
			work, err := restore(e.lastGood)
			if err != nil {
				return nil, err
			}
			if attempt > 0 {
				b := e.c.Retry.backoff(attempt)
				e.transition(StateRetrying, w, attempt, shape)
				e.logf("wave %d attempt %d: retry after %s backoff, shape %q", w, attempt, b, shape)
				work.RunFor(b)
			} else {
				e.transition(StateRunning, w, attempt, shape)
			}
			if e.c.Instrument != nil {
				e.c.Instrument(work, w, attempt)
			}
			m, xerr := e.x.Execute(ctx, work, steps)
			if xerr == nil && e.c.testHookMetrics != nil {
				e.c.testHookMetrics(w, attempt, m)
			}
			if xerr != nil && isCtxErr(xerr) {
				// Freeze at the wave boundary: the attempt's fork is
				// abandoned, the checkpoint re-targets this attempt, and
				// the resumed run replays it identically.
				if err := e.persist(enc, e.checkpoint(fp)); err != nil {
					return nil, err
				}
				e.transition(StatePaused, w, attempt, "context")
				return e.result(StatePaused, w), nil
			}
			var viols []Violation
			if xerr != nil {
				viols = []Violation{{Check: "execute-error", Detail: xerr.Error()}}
			} else {
				e.logf("wave %d attempt %d: %s", w, attempt, m)
				viols = e.c.Envelope.Violations(m)
			}
			if len(viols) == 0 {
				e.logf("wave %d attempt %d: ok", w, attempt)
				net = work
				break
			}
			for _, v := range viols {
				e.logf("wave %d attempt %d: VIOLATION %s", w, attempt, v)
			}
			e.rollbacks++
			e.transition(StateRolledBack, w, attempt, short(fp))
			e.logf("wave %d: pause; roll back to last-good %s", w, short(fp))
			if attempt >= maxRetries {
				return e.abort(enc, fp, step, viols)
			}
			e.retries++
			e.attempt++
			if err := e.persist(enc, e.checkpoint(fp)); err != nil {
				return nil, err
			}
		}
		// Wave complete: the surviving fork, drained of any events the wave
		// left behind so the capture sits at a consistent cut, becomes the
		// campaign state.
		net.Converge()
		snap, err := snapshot.CaptureFrom(e.lastGood, net)
		if err != nil {
			return nil, fmt.Errorf("guard: capture after wave %d: %w", w, err)
		}
		e.lastGood = snap
		e.wave, e.attempt, e.started = w+1, 0, false
	}
	enc, fp, err := e.lastGood.EncodeWithFingerprint()
	if err != nil {
		return nil, fmt.Errorf("guard: encode snapshot: %w", err)
	}
	e.logf("guard %s: campaign complete: %d wave(s), %d retried attempt(s), %d rollback(s)",
		e.c.Name, len(e.waves), e.retries, e.rollbacks)
	cp := e.checkpoint(fp)
	cp.Done, cp.FinalFP = true, fp
	if err := e.persist(enc, cp); err != nil {
		return nil, err
	}
	e.transition(StateCompleted, len(e.waves), 0, short(fp))
	e.done = e.result(StateCompleted, len(e.waves))
	e.done.Net, e.done.FinalFP = net, fp
	return e.done, nil
}

// abort quarantines the offenders, restores the last-good fabric as the
// terminal state, and seals the incident report.
func (e *Execution) abort(enc []byte, fp string, step planner.Step, viols []Violation) (*Result, error) {
	q := offenders(viols, step.Devices)
	e.transition(StateQuarantined, e.wave, e.attempt, strings.Join(q, ","))
	e.logf("wave %d: retry budget exhausted; quarantine [%s]; abort", e.wave, strings.Join(q, ","))
	term, err := restore(e.lastGood)
	if err != nil {
		return nil, err
	}
	cp := e.checkpoint(fp)
	cp.Done, cp.Aborted, cp.Quarantined, cp.FinalFP, cp.Violations = true, true, q, fp, viols
	if err := e.persist(enc, cp); err != nil {
		return nil, err
	}
	e.transition(StateAborted, e.wave, e.attempt, short(fp))
	e.done = e.result(StateAborted, e.wave)
	e.done.Quarantined, e.done.Report = q, cp.incident(e.lastGood.Now())
	e.done.Net, e.done.FinalFP = term, fp
	return e.done, nil
}

// WaveMetrics is one wave attempt's measured transient — the guard's
// evidence base. The guard runs a wave through the planner's Executor, so
// it settles and samples exactly as the search that scored the wave did: a
// clean attempt 0 measures what the planner predicted for that step
// (TestPlanMatchesExecute).
type WaveMetrics = probe.Metrics

// degradedShape maps (wave, attempt, policy) to the attempt's step list:
// attempt 0 is the wave as planned; later attempts halve the batch per
// retry (unless NoSplit) and apply the policy's MinNextHop override from
// the second retry on.
func degradedShape(step planner.Step, attempt int, pol RetryPolicy) []planner.Step {
	if attempt == 0 {
		return []planner.Step{step}
	}
	mnh := step.MinNextHop
	if attempt >= 2 && pol.MinNextHop > 0 {
		mnh = pol.MinNextHop
	}
	batch := len(step.Devices)
	if !pol.NoSplit {
		batch = (len(step.Devices) + (1 << attempt) - 1) / (1 << attempt)
		if batch < 1 {
			batch = 1
		}
	}
	var out []planner.Step
	for i := 0; i < len(step.Devices); i += batch {
		j := i + batch
		if j > len(step.Devices) {
			j = len(step.Devices)
		}
		out = append(out, planner.Step{Devices: step.Devices[i:j], Bare: step.Bare, MinNextHop: mnh})
	}
	return out
}

// offenders derives the quarantine set: the union of devices the
// violations attribute, sorted; an unattributable hazard quarantines the
// whole wave.
func offenders(viols []Violation, wave []topo.DeviceID) []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range viols {
		for _, d := range v.Devices {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	if len(out) == 0 {
		for _, d := range wave {
			out = append(out, string(d))
		}
	}
	sort.Strings(out)
	return out
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// short abbreviates a fingerprint for the decision log.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func devList(devs []topo.DeviceID) string {
	parts := make([]string, len(devs))
	for i, d := range devs {
		parts[i] = string(d)
	}
	return strings.Join(parts, ",")
}

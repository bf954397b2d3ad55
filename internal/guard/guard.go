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
// state. Everything is deterministic: same snapshot, same campaign, same
// decision log.
package guard

import (
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
	"centralium/internal/traffic"
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
	// Schedule, when non-nil, is the explicit wave plan (each step is
	// one wave); nil derives the §5.3.2 layer order.
	Schedule planner.Schedule

	// Envelope is the per-wave safety envelope; the zero envelope is
	// replaced by DefaultEnvelope.
	Envelope Envelope
	// Retry bounds the remediation loop.
	Retry RetryPolicy

	// Workload the probe measures the envelope against, mirroring
	// planner.Params.
	Demands      []traffic.Demand
	Watch        []topo.DeviceID
	FairShare    float64
	BlackholeEps float64
	SampleEvery  int
	// SettlePerDevice settles after every device rather than every wave.
	SettlePerDevice bool

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

	// MaxWaves, when positive, pauses the run after that many waves
	// complete in this call — the server's pacing/freeze hook. The
	// returned Result carries the checkpoint to resume from.
	MaxWaves int
}

// normalize applies defaults in place.
func (c *Campaign) normalize() error {
	if len(c.Intent) == 0 {
		return fmt.Errorf("guard: campaign has no intent")
	}
	if c.Name == "" {
		c.Name = "campaign"
	}
	if c.BlackholeEps <= 0 {
		c.BlackholeEps = 0.001
	}
	if c.FairShare <= 0 && len(c.Watch) > 0 {
		c.FairShare = 1 / float64(len(c.Watch))
	}
	if c.Envelope == (Envelope{}) {
		c.Envelope = DefaultEnvelope()
	}
	// Canonicalize the intent's version tags. Config.Version is a
	// process-global generation counter with no behavioral role in the
	// emulated fabric, but it is embedded in every deployed config and
	// therefore in every state fingerprint. A guarded campaign must
	// replay byte-identically in a different process (WAL resume after a
	// daemon restart), so the guard re-tags deterministically: versions
	// 1..n in sorted device order.
	canon := make(controller.Intent, len(c.Intent))
	for i, d := range c.Intent.Devices() {
		cfg := *c.Intent[d]
		cfg.Version = int64(i + 1)
		canon[d] = &cfg
	}
	c.Intent = canon
	return nil
}

// FromParams builds a campaign from a planner scenario's parameters, so
// `planner.ScenarioSetup` output guards directly.
func FromParams(p planner.Params) Campaign {
	return Campaign{
		Intent:          p.Intent,
		OriginAltitude:  p.OriginAltitude,
		Demands:         p.Demands,
		Watch:           p.Watch,
		FairShare:       p.FairShare,
		BlackholeEps:    p.BlackholeEps,
		SampleEvery:     p.SampleEvery,
		SettlePerDevice: p.SettlePerDevice,
	}
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
	r, err := newRun(base, c)
	if err != nil {
		return nil, err
	}
	// The campaign walks rendered snapshots; base gets a view of its own and
	// is left holding no bytes.
	lastGood, err := base.Rendered()
	if err != nil {
		return nil, fmt.Errorf("guard: encode snapshot: %w", err)
	}
	return r.drive(ctx, lastGood, 0, 0, false)
}

// Resume continues a campaign from a journaled checkpoint: the campaign
// definition must match the original and c.Objects must hold the
// checkpoint's snapshots. A terminal checkpoint rebuilds the terminal
// Result without re-executing anything; a mid-campaign checkpoint drives
// the execution onward to the byte-identical terminal state the
// uninterrupted run would have reached.
func Resume(ctx context.Context, cpData []byte, c Campaign) (*Result, error) {
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
	r, err := newRun(snap, c)
	if err != nil {
		return nil, err
	}
	if cp.Waves != len(r.waves) {
		return nil, fmt.Errorf("guard: checkpoint has %d waves, campaign derives %d", cp.Waves, len(r.waves))
	}
	if cp.Campaign != r.c.Name {
		return nil, fmt.Errorf("guard: checkpoint is for campaign %q, not %q", cp.Campaign, r.c.Name)
	}
	r.log.WriteString(cp.Log)
	r.retries, r.rollbacks = cp.Retries, cp.Rollbacks
	r.lastCP = append([]byte(nil), cpData...)
	if cp.Done {
		net, rerr := r.restore(snap)
		if rerr != nil {
			return nil, rerr
		}
		res := &Result{
			Name: r.c.Name, Waves: len(r.waves),
			Retries: r.retries, Rollbacks: r.rollbacks,
			Quarantined: cp.Quarantined, FinalFP: cp.FinalFP,
			Log: cp.Log, Net: net, Snapshot: snap, Checkpoint: r.lastCP,
		}
		if cp.Aborted {
			res.State = StateAborted
			res.WavesDone = cp.Wave
			if res.Report, err = DecodeIncidentReport(cp.Report); err != nil {
				return nil, err
			}
		} else {
			res.State = StateCompleted
			res.WavesDone = len(r.waves)
		}
		return res, nil
	}
	return r.drive(ctx, snap, cp.Wave, cp.Attempt, cp.Started)
}

// fetchSnapshot loads and decodes a fingerprinted snapshot. The stored
// bytes, written canonical, become the decoded snapshot's rendering.
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
	return snap, nil
}

// run is one guarded execution in flight.
type run struct {
	c        *Campaign
	waves    []planner.Step
	programs map[topo.DeviceID]*core.Program // c.Intent compiled: what every attempt's fork deploys
	workload probe.Workload                  // what the transient probe measures every attempt under

	log       strings.Builder
	retries   int
	rollbacks int
	lastCP    []byte
}

// newRun normalizes the campaign and derives its waves. The base
// snapshot supplies the topology; waves come from the explicit schedule
// or the §5.3.2 layer order.
func newRun(base *snapshot.Snapshot, c Campaign) (*run, error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	programs, err := planner.CompileIntent(c.Intent)
	if err != nil {
		return nil, err
	}
	r := &run{c: &c, programs: programs, workload: probe.Workload{
		Demands:      c.Demands,
		Watch:        c.Watch,
		FairShare:    c.FairShare,
		BlackholeEps: c.BlackholeEps,
		SampleEvery:  c.SampleEvery,
	}}
	if len(c.Schedule.Steps) > 0 {
		r.waves = c.Schedule.Clone().Steps
	} else {
		tp, err := base.Topology()
		if err != nil {
			return nil, fmt.Errorf("guard: base topology: %w", err)
		}
		ctl := &controller.Controller{Topo: tp}
		r.waves = planner.FromWaves(ctl.Waves(controller.Rollout{
			Intent: c.Intent, OriginAltitude: c.OriginAltitude,
		})).Steps
	}
	if len(r.waves) == 0 {
		return nil, fmt.Errorf("guard: campaign has no waves")
	}
	return r, nil
}

func (r *run) restore(snap *snapshot.Snapshot) (*fabric.Network, error) {
	n, err := snap.Restore()
	if err != nil {
		return nil, fmt.Errorf("guard: restore: %w", err)
	}
	return n, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(&r.log, format+"\n", args...)
}

func (r *run) transition(st State, wave, attempt int, detail string) {
	if r.c.OnTransition != nil {
		r.c.OnTransition(Transition{State: st, Wave: wave, Attempt: attempt, Detail: detail})
	}
}

// persist journals the guard record (and puts the last-good snapshot's
// encoding in the object store) for the given resume point; started marks
// a checkpoint taken after the wave's start line was logged; term carries
// the terminal fields.
func (r *run) persist(enc []byte, fp string, wave, attempt int, started bool, term *Checkpoint) error {
	if r.c.Objects != nil {
		if err := r.c.Objects.Put(fp, enc); err != nil {
			return fmt.Errorf("guard: object store: %w", err)
		}
	}
	cp := &Checkpoint{
		Version: checkpointVersion, Campaign: r.c.Name, Waves: len(r.waves),
		Wave: wave, Attempt: attempt, Started: started,
		Retries: r.retries, Rollbacks: r.rollbacks,
		LastGood: fp, Log: r.log.String(),
	}
	if term != nil {
		cp.Done, cp.Aborted = true, term.Aborted
		cp.Quarantined, cp.FinalFP, cp.Report = term.Quarantined, term.FinalFP, term.Report
	}
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	r.lastCP = data
	if r.c.Journal != nil {
		if err := r.c.Journal.SaveProgress(wave, data); err != nil {
			return fmt.Errorf("guard: journal: %w", err)
		}
	}
	return nil
}

// drive runs the supervisor loop from (startWave, startAttempt) with
// lastGood, a rendered snapshot, as the authoritative pre-wave state: each
// wave's surviving fork is captured against it, so a state is rendered once,
// at the cost of what its wave touched. startedAlready means the
// start wave's log line was emitted before the checkpoint being resumed.
func (r *run) drive(ctx context.Context, lastGood *snapshot.Snapshot, startWave, startAttempt int, startedAlready bool) (*Result, error) {
	maxRetries := r.c.Retry.retries()
	if r.log.Len() == 0 {
		r.logf("guard %s: %d wave(s), envelope [%s], max retries %d",
			r.c.Name, len(r.waves), r.c.Envelope, maxRetries)
	}
	wavesThisCall := 0
	var net *fabric.Network
	for w := startWave; w < len(r.waves); w++ {
		step := r.waves[w]
		enc, fp, err := lastGood.EncodeWithFingerprint()
		if err != nil {
			return nil, fmt.Errorf("guard: encode snapshot: %w", err)
		}
		attempt0, startedHere := 0, false
		if w == startWave {
			attempt0, startedHere = startAttempt, startedAlready
		}
		if r.c.MaxWaves > 0 && wavesThisCall >= r.c.MaxWaves {
			if err := r.persist(enc, fp, w, attempt0, startedHere, nil); err != nil {
				return nil, err
			}
			r.transition(StatePaused, w, attempt0, "pacing")
			return r.paused(lastGood, w), nil
		}
		if err := r.persist(enc, fp, w, attempt0, startedHere, nil); err != nil {
			return nil, err
		}
		if attempt0 == 0 && !startedHere {
			r.logf("wave %d [%s]: start (last-good %s)", w, devList(step.Devices), short(fp))
		}
		for attempt := attempt0; ; attempt++ {
			steps := degradedShape(step, attempt, r.c.Retry)
			shape := planner.Schedule{Steps: steps}.String()
			work, rerr := r.restore(lastGood)
			if rerr != nil {
				return nil, rerr
			}
			if attempt > 0 {
				b := r.c.Retry.backoff(attempt)
				r.transition(StateRetrying, w, attempt, shape)
				r.logf("wave %d attempt %d: retry after %s backoff, shape %q", w, attempt, b, shape)
				work.RunFor(b)
			} else {
				r.transition(StateRunning, w, attempt, shape)
			}
			if r.c.Instrument != nil {
				r.c.Instrument(work, w, attempt)
			}
			m, xerr := planner.ExecuteSteps(ctx, work, r.workload, r.c.Intent, r.programs, r.c.OriginAltitude, r.c.SettlePerDevice, steps)
			if xerr != nil && isCtxErr(xerr) {
				// Freeze at the wave boundary: the attempt's fork is
				// abandoned, the checkpoint re-targets this attempt, and
				// the resumed run replays it identically.
				if err := r.persist(enc, fp, w, attempt, true, nil); err != nil {
					return nil, err
				}
				r.transition(StatePaused, w, attempt, "context")
				return r.paused(lastGood, w), nil
			}
			var viols []Violation
			if xerr != nil {
				viols = []Violation{{Check: "execute-error", Detail: xerr.Error()}}
			} else {
				r.logf("wave %d attempt %d: %s", w, attempt, m)
				viols = r.c.Envelope.Violations(m)
			}
			if len(viols) == 0 {
				r.logf("wave %d attempt %d: ok", w, attempt)
				net = work
				break
			}
			for _, v := range viols {
				r.logf("wave %d attempt %d: VIOLATION %s", w, attempt, v)
			}
			r.rollbacks++
			r.transition(StateRolledBack, w, attempt, short(fp))
			r.logf("wave %d: pause; roll back to last-good %s", w, short(fp))
			if attempt >= maxRetries {
				return r.abort(lastGood, enc, fp, w, attempt, step, viols, m)
			}
			r.retries++
			if err := r.persist(enc, fp, w, attempt+1, true, nil); err != nil {
				return nil, err
			}
		}
		// Wave complete: the surviving fork becomes the campaign state.
		if err := quiesce(net); err != nil {
			return nil, err
		}
		snap, cerr := snapshot.CaptureFrom(lastGood, net)
		if cerr != nil {
			return nil, fmt.Errorf("guard: capture after wave %d: %w", w, cerr)
		}
		lastGood = snap
		wavesThisCall++
	}
	enc, fp, err := lastGood.EncodeWithFingerprint()
	if err != nil {
		return nil, fmt.Errorf("guard: encode snapshot: %w", err)
	}
	r.logf("guard %s: campaign complete: %d wave(s), %d retried attempt(s), %d rollback(s)",
		r.c.Name, len(r.waves), r.retries, r.rollbacks)
	term := &Checkpoint{FinalFP: fp}
	if err := r.persist(enc, fp, len(r.waves), 0, false, term); err != nil {
		return nil, err
	}
	r.transition(StateCompleted, len(r.waves), 0, short(fp))
	return &Result{
		State: StateCompleted, Name: r.c.Name,
		Waves: len(r.waves), WavesDone: len(r.waves),
		Retries: r.retries, Rollbacks: r.rollbacks, FinalFP: fp,
		Log: r.log.String(), Net: net, Snapshot: lastGood, Checkpoint: r.lastCP,
	}, nil
}

// abort quarantines the offenders, restores the last-good fabric as the
// terminal state, and seals the incident report.
func (r *run) abort(lastGood *snapshot.Snapshot, enc []byte, fp string, wave, attempt int, step planner.Step, viols []Violation, m WaveMetrics) (*Result, error) {
	q := offenders(viols, step.Devices)
	r.transition(StateQuarantined, wave, attempt, strings.Join(q, ","))
	r.logf("wave %d: retry budget exhausted; quarantine [%s]; abort", wave, strings.Join(q, ","))
	term, err := r.restore(lastGood)
	if err != nil {
		return nil, err
	}
	report := &IncidentReport{
		Campaign: r.c.Name, Wave: wave, Attempt: attempt,
		TimeNs:   lastGood.Now(),
		LastGood: fp, Quarantined: q, Violations: viols,
		Log: r.log.String(),
	}
	tcp := &Checkpoint{Aborted: true, Quarantined: q, FinalFP: fp, Report: EncodeIncidentReport(report)}
	if err := r.persist(enc, fp, wave, attempt, true, tcp); err != nil {
		return nil, err
	}
	r.transition(StateAborted, wave, attempt, short(fp))
	return &Result{
		State: StateAborted, Name: r.c.Name,
		Waves: len(r.waves), WavesDone: wave,
		Retries: r.retries, Rollbacks: r.rollbacks,
		Quarantined: q, Report: report, FinalFP: fp,
		Log: r.log.String(), Net: term, Snapshot: lastGood, Checkpoint: r.lastCP,
	}, nil
}

func (r *run) paused(lastGood *snapshot.Snapshot, wave int) *Result {
	return &Result{
		State: StatePaused, Name: r.c.Name,
		Waves: len(r.waves), WavesDone: wave,
		Retries: r.retries, Rollbacks: r.rollbacks,
		Log: r.log.String(), Snapshot: lastGood, Checkpoint: r.lastCP,
	}
}

// quiesce drains any events a wave left behind so the post-wave capture
// sits at a consistent cut; a converged wave makes this a no-op.
func quiesce(n *fabric.Network) error {
	n.Converge()
	return nil
}

// WaveMetrics is one wave attempt's measured transient — the guard's
// evidence base. The guard judges a live wave by the same probe, and so the
// same metrics, the planner scored it by.
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

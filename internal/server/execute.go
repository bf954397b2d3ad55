package server

// POST /v1/execute: guarded campaign execution as a service. The daemon
// runs the scenario's migration campaign under the internal/guard
// supervisor — telemetry-driven auto-pause, rollback to last-good,
// bounded retry, quarantine-and-abort — as a job (jobs.go) whose checkpoint
// journals before every wave and commits with the post. Guard state
// transitions stream on /v1/events as they happen.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"centralium/internal/guard"
	"centralium/internal/planner"
)

// Limits on execute request contents.
const (
	maxExecRetries = 8
	maxExecWaves   = 64
)

// ExecuteRequest is the POST /v1/execute body: run the scenario's
// campaign under the guard. Repeated posts with the same identity
// (everything but max_waves/timeout_ms) address the same execution —
// a paused or interrupted campaign resumes, a finished one answers
// idempotently with its recorded terminal response.
type ExecuteRequest struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Schedule is the wave plan in canonical wave-only text form (as in
	// /v1/whatif); empty means the §5.3.2 altitude-derived order.
	Schedule string `json:"schedule,omitempty"`
	// Envelope is the safety envelope in guard.ParseEnvelope syntax,
	// e.g. "session-downs=0,share=0.6,blackhole-ms=5". Empty applies
	// guard.DefaultEnvelope.
	Envelope string `json:"envelope,omitempty"`
	// MaxRetries bounds per-wave retries (0: the guard default of 2;
	// -1: no retries — first violation aborts).
	MaxRetries int `json:"max_retries,omitempty"`
	// MaxWaves, when positive, pauses the execution after that many
	// waves complete in this request — pacing, not identity; post again
	// to continue.
	MaxWaves  int   `json:"max_waves,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// DecodeExecuteRequest strictly decodes one request body.
func DecodeExecuteRequest(data []byte) (*ExecuteRequest, error) {
	var req ExecuteRequest
	if err := strictDecode(data, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request and canonicalizes it in place (schedule
// and envelope re-render through their codecs).
func (r *ExecuteRequest) Validate() error {
	if err := checkScenario(r.Scenario); err != nil {
		return err
	}
	sched, err := parseWaveSchedule(r.Schedule)
	if err != nil {
		return err
	}
	r.Schedule = sched.String()
	env, err := guard.ParseEnvelope(r.Envelope)
	if err != nil {
		return err
	}
	if r.Envelope != "" {
		// Re-render through the codec so spelling variants of one
		// envelope cannot split the execution identity.
		r.Envelope = env.Spec()
	}
	if r.MaxRetries < -1 || r.MaxRetries > maxExecRetries {
		return fmt.Errorf("max_retries %d out of range [-1, %d]", r.MaxRetries, maxExecRetries)
	}
	if r.MaxWaves < 0 || r.MaxWaves > maxExecWaves {
		return fmt.Errorf("max_waves %d out of range [0, %d]", r.MaxWaves, maxExecWaves)
	}
	if r.TimeoutMs < 0 || r.TimeoutMs > maxTimeoutMs {
		return fmt.Errorf("timeout_ms %d out of range [0, %d]", r.TimeoutMs, maxTimeoutMs)
	}
	return nil
}

// envelope resolves the validated request's envelope value.
func (r *ExecuteRequest) envelope() guard.Envelope {
	env, _ := guard.ParseEnvelope(r.Envelope)
	return env
}

// execID names the server-side execution this request addresses: the
// base fingerprint plus every parameter that shapes the campaign.
// MaxWaves and TimeoutMs are pacing, not identity — posts that differ
// only there drive the same execution further.
func (r *ExecuteRequest) execID(fingerprint string) string {
	ident := *r
	ident.MaxWaves = 0
	ident.TimeoutMs = 0
	data, _ := json.Marshal(&ident)
	sum := sha256.Sum256(append([]byte(fingerprint+"\n"), data...))
	return hex.EncodeToString(sum[:16])
}

// ExecuteResponse is the POST /v1/execute report. State "completed" and
// "aborted" are terminal (and idempotently re-served); "paused" means
// the pacing bound or request deadline froze the campaign at a wave
// boundary — post again to continue.
type ExecuteResponse struct {
	ExecID      string `json:"exec_id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	Waves       int    `json:"waves"`
	WavesDone   int    `json:"waves_done"`
	Retries     int    `json:"retries"`
	Rollbacks   int    `json:"rollbacks"`
	// Quarantined and Incident are set on an aborted execution.
	Quarantined []string              `json:"quarantined,omitempty"`
	Incident    *guard.IncidentReport `json:"incident,omitempty"`
	// FinalFingerprint identifies the terminal fabric state: the
	// completed campaign's fleet, or the last-good state an aborted
	// campaign rolled back to. Empty while paused.
	FinalFingerprint string `json:"final_fingerprint,omitempty"`
	// Log is the guard's deterministic decision log.
	Log string `json:"log"`
}

func (s *Server) execute(ctx context.Context, ar *apiRequest) result {
	req, err := DecodeExecuteRequest(ar.body)
	if err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	if err := req.Validate(); err != nil {
		return errorResult(http.StatusBadRequest, "%v", err)
	}
	entry, err := s.cache.get(req.Scenario, req.Seed)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "build scenario base: %v", err)
	}
	id := req.execID(entry.Fingerprint)
	c := entry.campaign
	c.Name = "exec-" + id[:12]
	c.Envelope = req.envelope()
	c.Retry.MaxRetries = req.MaxRetries
	if req.Schedule != "" {
		sched, err := planner.Parse(req.Schedule)
		if err != nil {
			return errorResult(http.StatusBadRequest, "%v", err)
		}
		if err := coversIntent(sched.Waves(), entry.Params); err != nil {
			return errorResult(http.StatusBadRequest, "%v", err)
		}
		c.Schedule = sched
	}
	label := fmt.Sprintf("execute %s/%d", req.Scenario, req.Seed)
	c.OnTransition = func(tr guard.Transition) {
		s.metrics.observeGuard(tr)
		s.events.publish(StreamEvent{Source: label, Guard: &tr})
	}
	c.Objects = s.persist.execObjects(entry)
	journaled := func(rec *jobRecord) guard.Campaign { c.Journal = s.persist.journal(execJob, id, rec); return c }
	return drive(s, s.execs, id, jobSteps[guard.Execution]{
		start: func(rec *jobRecord) (*guard.Execution, error) { return guard.NewExecution(entry.Snap, journaled(rec)) },
		resume: func(rec *jobRecord) (*guard.Execution, error) {
			return guard.ResumeExecution(rec.checkpoint, journaled(rec))
		},
		advance: func(exec *guard.Execution, _ *jobRecord) (result, bool, error) {
			res, err := exec.Drive(ctx, req.MaxWaves)
			if err != nil {
				return result{}, false, err
			}
			resp := &ExecuteResponse{
				ExecID:      id,
				Fingerprint: entry.Fingerprint,
				State:       string(res.State),
				Waves:       res.Waves,
				WavesDone:   res.WavesDone,
				Retries:     res.Retries,
				Rollbacks:   res.Rollbacks,
				Quarantined: res.Quarantined,
				Incident:    res.Report,
				Log:         res.Log,
			}
			final := res.State == guard.StateCompleted || res.State == guard.StateAborted
			if final {
				resp.FinalFingerprint = res.FinalFP
			}
			return jsonResult(http.StatusOK, resp), final, nil
		},
	})
}

// Execute runs (or resumes) a guarded campaign execution.
func (c *Client) Execute(ctx context.Context, req *ExecuteRequest) (*ExecuteResponse, error) {
	var out ExecuteResponse
	if err := c.do(ctx, http.MethodPost, "/v1/execute", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

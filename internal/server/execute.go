package server

// POST /v1/execute: guarded campaign execution as a service. The daemon
// runs the scenario's migration campaign under the internal/guard
// supervisor — telemetry-driven auto-pause, rollback to last-good,
// bounded retry, quarantine-and-abort. Between paced posts the daemon keeps
// the *guard.Execution itself, as it keeps a plan's search; with a store it
// journals a guard checkpoint before every wave, so a daemon killed
// mid-campaign resumes the execution from the WAL to the byte-identical
// terminal state on the next post. Guard state transitions stream on
// /v1/events as they happen.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
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
	ee := s.execs.get(id)

	// One request at a time advances a given execution; concurrent posts
	// for the same ID serialize here, each driving it further.
	ee.mu.Lock()
	defer ee.mu.Unlock()
	if ee.final != nil {
		return result{status: http.StatusOK, body: ee.final}
	}

	exec := ee.live
	if exec == nil {
		c := guard.FromParams(entry.Params)
		c.Name = "exec-" + id[:12]
		c.Envelope = req.envelope()
		c.Retry.MaxRetries = req.MaxRetries
		if req.Schedule != "" {
			sched, perr := planner.Parse(req.Schedule)
			if perr != nil {
				return errorResult(http.StatusBadRequest, "%v", perr)
			}
			if cerr := coversIntent(sched.Waves(), entry.Params); cerr != nil {
				return errorResult(http.StatusBadRequest, "%v", cerr)
			}
			c.Schedule = sched
		}
		label := fmt.Sprintf("execute %s/%d", req.Scenario, req.Seed)
		c.OnTransition = func(tr guard.Transition) {
			s.metrics.observeGuard(tr)
			s.events.publish(StreamEvent{Source: label, Guard: &tr})
		}
		if s.persist != nil {
			// With a store, every checkpoint journals durably before the
			// wave it precedes runs, and last-good states go to the object
			// store: the resume point of a restarted daemon.
			c.Journal = guard.JournalFunc(func(level int, cp []byte) error {
				return s.persist.saveExecCheckpoint(id, cp)
			})
			c.Objects = s.persist.st.Objects
			if cp := s.persist.checkpoint(s.persist.execs, id); cp != nil {
				if exec, err = guard.ResumeExecution(cp, c); err != nil {
					// An unresumable checkpoint is an absent one: the final body
					// is a pure function of (base, campaign), so the execution
					// restarts from wave 0 and its next checkpoint replaces the
					// bad record.
					log.Printf("server: execution %s: journaled checkpoint does not resume, restarting the campaign: %v", id, err)
					s.unresumableExecs.Add(1)
				}
			}
		}
		if exec == nil {
			if exec, err = guard.NewExecution(entry.Snap, c); err != nil {
				return errorResult(http.StatusInternalServerError, "start execution %s: %v", id, err)
			}
		}
	}
	ee.live = exec

	res, err := exec.Drive(ctx, req.MaxWaves)
	if err != nil {
		// The execution may be mid-wave: drop it, so the next request
		// resumes from the last journaled checkpoint as it would after a
		// crash.
		ee.live = nil
		return errorResult(http.StatusInternalServerError, "execute %s: %v", id, err)
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
	if res.State == guard.StateCompleted || res.State == guard.StateAborted {
		resp.FinalFingerprint = res.FinalFP
		body := encodeBody(resp)
		// A terminal execution answers from final, like a finished plan;
		// its live execution is dead weight.
		ee.final, ee.live = body, nil
		if s.persist != nil {
			if perr := s.persist.saveExecFinal(id, body); perr != nil {
				s.persist.noteError()
			}
		}
		return result{status: http.StatusOK, body: body}
	}
	return jsonResult(http.StatusOK, resp)
}

// Execute runs (or resumes) a guarded campaign execution.
func (c *Client) Execute(ctx context.Context, req *ExecuteRequest) (*ExecuteResponse, error) {
	var out ExecuteResponse
	if err := c.do(ctx, http.MethodPost, "/v1/execute", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

package server

// Request/response model of the centraliumd API. Decoding is strict
// (unknown fields and trailing garbage are errors), validation
// canonicalizes the request in place, and every response is rendered
// through one canonical JSON encoding — the conformance suite compares
// serial and concurrent serving byte for byte, so nothing here may
// depend on map order, wall-clock time, or request interleaving.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"centralium/internal/planner"
	"centralium/internal/topo"
)

// Limits on request contents, enforced by Validate. They bound work per
// request, not expressiveness: every repo scenario fits comfortably.
const (
	maxScheduleLen     = 8192   // canonical schedule text bytes
	maxScheduleDevices = 512    // devices across all waves
	maxTimeoutMs       = 600000 // 10 minutes
	maxBeam            = 64
	maxRandomCands     = 64
	maxListLen         = 16   // batch_sizes / min_next_hops entries
	maxBatchSize       = 4096 // one batch_sizes entry
	maxPlanLevels      = 1024 // levels advanced by one request
)

// WhatIfRequest is the POST /v1/whatif body: qualify a deployment
// schedule for a named scenario on a fork of its converged base.
type WhatIfRequest struct {
	// Scenario names the converged base (planner.ScenarioNames).
	Scenario string `json:"scenario"`
	// Seed builds the base; same (scenario, seed) → same fingerprint.
	Seed int64 `json:"seed"`
	// Schedule is the deployment order in the planner's canonical text
	// form, waves only ("fsw.0.0,fsw.0.1 > ssw.0.0"); step options
	// (!bare, !mnh=) are planner-internal and rejected here. Empty means
	// the §5.3.2 altitude-derived baseline order.
	Schedule string `json:"schedule,omitempty"`
	// MaxFunnelShare, when positive, adds a FunnelBound invariant over
	// the scenario's watched layer.
	MaxFunnelShare float64 `json:"max_funnel_share,omitempty"`
	// MaxLinkUtilization, when positive, adds the post-change
	// utilization invariant.
	MaxLinkUtilization float64 `json:"max_link_utilization,omitempty"`
	// SampleEvery is ignored and not on the wire (a body naming
	// sample_every is an unknown field): the probe samples every change
	// of forwarding state. It stays declared for callers that still read it.
	SampleEvery int `json:"-"`
	// NoMemo bypasses the response memo (the result is still computed
	// and byte-identical; memoization can never change bytes).
	NoMemo bool `json:"no_memo,omitempty"`
	// TimeoutMs overrides the server's default request deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// DecodeWhatIfRequest strictly decodes one request body.
func DecodeWhatIfRequest(data []byte) (*WhatIfRequest, error) {
	var req WhatIfRequest
	if err := strictDecode(data, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request and canonicalizes it in place (schedule
// text is re-rendered through the planner codec, defaults are pinned).
// A validated request re-encodes to a fixed point: decode(encode(r))
// validates to identical bytes — the property FuzzWhatIfRequest holds.
func (r *WhatIfRequest) Validate() error {
	if err := checkScenario(r.Scenario); err != nil {
		return err
	}
	if r.MaxFunnelShare < 0 || r.MaxFunnelShare > 1 {
		return fmt.Errorf("max_funnel_share %v out of range [0, 1]", r.MaxFunnelShare)
	}
	if r.MaxLinkUtilization < 0 || r.MaxLinkUtilization > 1e6 {
		return fmt.Errorf("max_link_utilization %v out of range [0, 1e6]", r.MaxLinkUtilization)
	}
	if r.TimeoutMs < 0 || r.TimeoutMs > maxTimeoutMs {
		return fmt.Errorf("timeout_ms %d out of range [0, %d]", r.TimeoutMs, maxTimeoutMs)
	}
	sched, err := parseWaveSchedule(r.Schedule)
	if err != nil {
		return err
	}
	r.Schedule = sched.String()
	return nil
}

// Waves returns the request's explicit wave schedule (nil for the
// baseline order). Call after Validate.
func (r *WhatIfRequest) Waves() [][]topo.DeviceID {
	sched, err := planner.Parse(r.Schedule)
	if err != nil || len(sched.Steps) == 0 {
		return nil
	}
	return sched.Waves()
}

// EncodeCanonical renders the validated request in its canonical byte
// form — the memo key material and the fuzz round-trip fixed point.
func (r *WhatIfRequest) EncodeCanonical() ([]byte, error) {
	return json.Marshal(r)
}

// memoKey derives the response-memo key: the base state's fingerprint
// plus the canonical request bytes. Two requests share a memo slot iff
// they are the same computation.
func (r *WhatIfRequest) memoKey(fingerprint string) string {
	data, _ := r.EncodeCanonical()
	sum := sha256.Sum256(append([]byte(fingerprint+"\n"), data...))
	return hex.EncodeToString(sum[:])
}

// parseWaveSchedule parses a schedule in wave-only form: planner step
// options and duplicate devices are rejected.
func parseWaveSchedule(text string) (planner.Schedule, error) {
	if len(text) > maxScheduleLen {
		return planner.Schedule{}, fmt.Errorf("schedule longer than %d bytes", maxScheduleLen)
	}
	sched, err := planner.Parse(text)
	if err != nil {
		return planner.Schedule{}, err
	}
	seen := make(map[topo.DeviceID]bool)
	total := 0
	for _, st := range sched.Steps {
		if st.Bare || st.MinNextHop > 0 {
			return planner.Schedule{}, fmt.Errorf("schedule step %q: step options are not accepted here (waves only)", st)
		}
		for _, d := range st.Devices {
			if seen[d] {
				return planner.Schedule{}, fmt.Errorf("schedule deploys device %s twice", d)
			}
			seen[d] = true
			total++
		}
	}
	if total > maxScheduleDevices {
		return planner.Schedule{}, fmt.Errorf("schedule deploys %d devices (limit %d)", total, maxScheduleDevices)
	}
	return sched, nil
}

// GateViolation is one invariant failure in a what-if verdict.
type GateViolation struct {
	Invariant string `json:"invariant"`
	// Transient marks a mid-rollout failure (false: steady state).
	Transient bool `json:"transient,omitempty"`
	// AtNs is the virtual time of the first occurrence.
	AtNs   int64  `json:"at_ns"`
	Detail string `json:"detail"`
}

// WhatIfResponse is the POST /v1/whatif verdict. Both passing and
// failing qualifications are 200s — the verdict is the payload.
type WhatIfResponse struct {
	Fingerprint string `json:"fingerprint"`
	Scenario    string `json:"scenario"`
	Seed        int64  `json:"seed"`
	// Schedule is the canonical text of the qualified schedule ("" for
	// the §5.3.2 baseline order).
	Schedule string `json:"schedule"`
	Passed   bool   `json:"passed"`
	// Events is the emulation event count of the qualification rollout.
	Events     int64           `json:"events"`
	Violations []GateViolation `json:"violations,omitempty"`
}

// PlanRequest is the POST /v1/plan body: advance a beam search over the
// scenario's deployment schedules. Search state checkpoints server-side
// between requests — repeated posts with the same parameters resume the
// same search (the plan_id in the response names it).
type PlanRequest struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// MaxLevels bounds the beam levels advanced by this request
	// (0: run to completion).
	MaxLevels int `json:"max_levels,omitempty"`
	// Beam/RandomCands/BatchSizes/MinNextHops/SearchBare override the
	// scenario's planner parameters (planner.Params semantics; zero
	// values keep the defaults, RandomCands -1 disables).
	Beam        int   `json:"beam,omitempty"`
	RandomCands int   `json:"random_cands,omitempty"`
	BatchSizes  []int `json:"batch_sizes,omitempty"`
	MinNextHops []int `json:"min_next_hops,omitempty"`
	SearchBare  bool  `json:"search_bare,omitempty"`
	TimeoutMs   int64 `json:"timeout_ms,omitempty"`
}

// DecodePlanRequest strictly decodes one request body.
func DecodePlanRequest(data []byte) (*PlanRequest, error) {
	var req PlanRequest
	if err := strictDecode(data, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate checks the request's bounds.
func (r *PlanRequest) Validate() error {
	if err := checkScenario(r.Scenario); err != nil {
		return err
	}
	if r.MaxLevels < 0 || r.MaxLevels > maxPlanLevels {
		return fmt.Errorf("max_levels %d out of range [0, %d]", r.MaxLevels, maxPlanLevels)
	}
	if r.Beam < 0 || r.Beam > maxBeam {
		return fmt.Errorf("beam %d out of range [0, %d]", r.Beam, maxBeam)
	}
	if r.RandomCands < -1 || r.RandomCands > maxRandomCands {
		return fmt.Errorf("random_cands %d out of range [-1, %d]", r.RandomCands, maxRandomCands)
	}
	if len(r.BatchSizes) > maxListLen {
		return fmt.Errorf("batch_sizes has %d entries (limit %d)", len(r.BatchSizes), maxListLen)
	}
	for _, b := range r.BatchSizes {
		if b < 1 || b > maxBatchSize {
			return fmt.Errorf("batch_sizes entry %d out of range [1, %d]", b, maxBatchSize)
		}
	}
	if len(r.MinNextHops) > maxListLen {
		return fmt.Errorf("min_next_hops has %d entries (limit %d)", len(r.MinNextHops), maxListLen)
	}
	for _, m := range r.MinNextHops {
		if m < 1 || m > 100 {
			return fmt.Errorf("min_next_hops entry %d out of range [1, 100]", m)
		}
	}
	if r.TimeoutMs < 0 || r.TimeoutMs > maxTimeoutMs {
		return fmt.Errorf("timeout_ms %d out of range [0, %d]", r.TimeoutMs, maxTimeoutMs)
	}
	return nil
}

// planID names the server-side search this request addresses: the base
// fingerprint plus every parameter that shapes the search. MaxLevels and
// TimeoutMs are pacing, not search identity — posts that differ only
// there advance the same plan.
func (r *PlanRequest) planID(fingerprint string) string {
	ident := *r
	ident.MaxLevels = 0
	ident.TimeoutMs = 0
	data, _ := json.Marshal(&ident)
	sum := sha256.Sum256(append([]byte(fingerprint+"\n"), data...))
	return hex.EncodeToString(sum[:16])
}

// PlanResponse is the POST /v1/plan progress report. Winner/baseline
// fields are set once Done.
type PlanResponse struct {
	PlanID      string        `json:"plan_id"`
	Fingerprint string        `json:"fingerprint"`
	Done        bool          `json:"done"`
	Level       int           `json:"level"`
	Stats       planner.Stats `json:"stats"`

	Winner        string         `json:"winner,omitempty"`
	Score         *planner.Score `json:"score,omitempty"`
	Baseline      string         `json:"baseline,omitempty"`
	BaselineScore *planner.Score `json:"baseline_score,omitempty"`
	// FromBaseline reports that the dominance guard handed the win back
	// to the §5.3.2 baseline.
	FromBaseline bool `json:"from_baseline,omitempty"`
}

// ExplainViews lists the GET /v1/explain views.
func ExplainViews() []string { return []string{"rpas", "route", "fib"} }

// ExplainRequest is the GET /v1/explain query: render one §7.2 operator
// debugging view on a fork of the scenario base.
type ExplainRequest struct {
	Scenario string
	Seed     int64
	// Device is the switch under inspection.
	Device string
	// View selects the rendering: "rpas" (active RPA listing), "route"
	// (which statement governs Prefix), "fib" (forwarding table dump).
	View string
	// Prefix is required by the "route" view.
	Prefix string
}

// Validate checks the query.
func (r *ExplainRequest) Validate() error {
	if err := checkScenario(r.Scenario); err != nil {
		return err
	}
	if r.Device == "" {
		return fmt.Errorf("missing device")
	}
	switch r.View {
	case "rpas", "fib":
		if r.Prefix != "" {
			return fmt.Errorf("view %q takes no prefix", r.View)
		}
	case "route":
		if r.Prefix == "" {
			return fmt.Errorf("view \"route\" needs a prefix")
		}
	default:
		return fmt.Errorf("unknown view %q (have %v)", r.View, ExplainViews())
	}
	return nil
}

// ExplainResponse is the GET /v1/explain rendering.
type ExplainResponse struct {
	Fingerprint string `json:"fingerprint"`
	Scenario    string `json:"scenario"`
	Seed        int64  `json:"seed"`
	Device      string `json:"device"`
	View        string `json:"view"`
	// Output is the rpadebug text rendering, verbatim.
	Output string `json:"output"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// strictDecode unmarshals exactly one JSON value, rejecting unknown
// fields and trailing content.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: trailing content after JSON value")
	}
	// Decode stops at the value's end; anything but EOF whitespace is
	// trailing garbage.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("decode request: trailing content after JSON value")
	}
	return nil
}

func checkScenario(name string) error {
	for _, s := range planner.ScenarioNames() {
		if name == s {
			return nil
		}
	}
	return fmt.Errorf("unknown scenario %q (have %v)", name, planner.ScenarioNames())
}

// encodeBody renders a response value in the canonical form every
// handler uses: compact JSON plus one trailing newline.
func encodeBody(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		// Response types marshal by construction; a failure is a bug.
		panic(fmt.Sprintf("server: encode response: %v", err))
	}
	return append(data, '\n')
}

package server

// Table-driven coverage of the request codec: strict decoding,
// validation bounds, schedule canonicalization, and the two identity
// derivations (memo key, plan ID).

import (
	"strings"
	"testing"
)

func TestDecodeWhatIfRequestStrictness(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		wantErr string // substring; "" means decode must succeed
	}{
		{"minimal", `{"scenario":"fig10","seed":7}`, ""},
		{"all fields", `{"scenario":"fig10","seed":7,"schedule":"fa.0","max_funnel_share":0.5,"max_link_utilization":0.8,"no_memo":true,"timeout_ms":100}`, ""},
		{"unknown field", `{"scenario":"fig10","seed":7,"bogus":1}`, "unknown field"},
		{"sample every", `{"scenario":"fig10","seed":7,"sample_every":2}`, "unknown field"},
		{"sample every negative", `{"scenario":"fig10","seed":7,"sample_every":-1}`, "unknown field"},
		{"sample every huge", `{"scenario":"fig10","seed":7,"sample_every":1000001}`, "unknown field"},
		{"trailing garbage", `{"scenario":"fig10","seed":7} x`, "trailing content"},
		{"second value", `{"scenario":"fig10","seed":7}{"seed":8}`, "trailing content"},
		{"not an object", `[1,2]`, "cannot unmarshal"},
		{"empty body", ``, "EOF"},
		{"wrong type", `{"scenario":"fig10","seed":"seven"}`, "cannot unmarshal"},
		{"trailing whitespace ok", "{\"scenario\":\"fig10\",\"seed\":7}\n\t ", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeWhatIfRequest([]byte(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("decode error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestWhatIfRequestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     WhatIfRequest
		wantErr string // substring; "" means valid
	}{
		{"baseline order", WhatIfRequest{Scenario: "fig10"}, ""},
		{"negative seed ok", WhatIfRequest{Scenario: "fig10", Seed: -5}, ""},
		{"unknown scenario", WhatIfRequest{Scenario: "ghost"}, "unknown scenario"},
		{"empty scenario", WhatIfRequest{}, "unknown scenario"},
		{"bad schedule text", WhatIfRequest{Scenario: "fig10", Schedule: ">"}, "schedule"},
		{"step option bare", WhatIfRequest{Scenario: "fig10", Schedule: "fa.0!bare"}, "step options"},
		{"step option mnh", WhatIfRequest{Scenario: "fig10", Schedule: "fa.0!mnh=2"}, "step options"},
		{"duplicate device", WhatIfRequest{Scenario: "fig10", Schedule: "fa.0 > fa.0"}, "twice"},
		{"funnel share over 1", WhatIfRequest{Scenario: "fig10", MaxFunnelShare: 1.5}, "max_funnel_share"},
		{"funnel share negative", WhatIfRequest{Scenario: "fig10", MaxFunnelShare: -0.1}, "max_funnel_share"},
		{"link utilization negative", WhatIfRequest{Scenario: "fig10", MaxLinkUtilization: -1}, "max_link_utilization"},
		{"timeout negative", WhatIfRequest{Scenario: "fig10", TimeoutMs: -1}, "timeout_ms"},
		{"timeout huge", WhatIfRequest{Scenario: "fig10", TimeoutMs: maxTimeoutMs + 1}, "timeout_ms"},
		{"schedule too long", WhatIfRequest{Scenario: "fig10", Schedule: strings.Repeat("x", maxScheduleLen+1)}, "longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestWhatIfValidateCanonicalizes(t *testing.T) {
	// Validation pins defaults and re-renders the schedule through the
	// planner codec; spacing differences vanish.
	a := WhatIfRequest{Scenario: "fig10", Schedule: "  fa.0 ,fa.1  >  fsw.pod0.0 "}
	b := WhatIfRequest{Scenario: "fig10", Schedule: "fa.0,fa.1 > fsw.pod0.0"}
	for _, r := range []*WhatIfRequest{&a, &b} {
		if err := r.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
	if a.Schedule != b.Schedule {
		t.Errorf("schedules did not canonicalize together: %q vs %q", a.Schedule, b.Schedule)
	}
	if a.memoKey("fp") != b.memoKey("fp") {
		t.Errorf("equivalent requests got distinct memo keys")
	}
	if got := len(a.Waves()); got != 2 {
		t.Errorf("waves: got %d, want 2", got)
	}
}

func TestWhatIfMemoKeySensitivity(t *testing.T) {
	base := WhatIfRequest{Scenario: "fig10", Seed: 7}
	if err := base.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	variants := []WhatIfRequest{
		{Scenario: "fig10", Seed: 8},
		{Scenario: "fig10", Seed: 7, Schedule: "fa.0,fa.1"},
		{Scenario: "fig10", Seed: 7, MaxFunnelShare: 0.5},
	}
	for i := range variants {
		if err := variants[i].Validate(); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if variants[i].memoKey("fp") == base.memoKey("fp") {
			t.Errorf("variant %d shares the base memo key", i)
		}
	}
	// Distinct base states split the memo even for identical requests.
	if base.memoKey("fp-a") == base.memoKey("fp-b") {
		t.Errorf("memo key ignores the base fingerprint")
	}
}

func TestPlanRequestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     PlanRequest
		wantErr string
	}{
		{"defaults", PlanRequest{Scenario: "fig10"}, ""},
		{"overrides", PlanRequest{Scenario: "fig10", Beam: 4, RandomCands: -1, BatchSizes: []int{2, 4}, MinNextHops: []int{1, 2}, SearchBare: true}, ""},
		{"unknown scenario", PlanRequest{Scenario: "ghost"}, "unknown scenario"},
		{"negative levels", PlanRequest{Scenario: "fig10", MaxLevels: -1}, "max_levels"},
		{"too many levels", PlanRequest{Scenario: "fig10", MaxLevels: maxPlanLevels + 1}, "max_levels"},
		{"beam over cap", PlanRequest{Scenario: "fig10", Beam: maxBeam + 1}, "beam"},
		{"random cands under -1", PlanRequest{Scenario: "fig10", RandomCands: -2}, "random_cands"},
		{"batch size zero", PlanRequest{Scenario: "fig10", BatchSizes: []int{0}}, "batch_sizes"},
		{"batch list too long", PlanRequest{Scenario: "fig10", BatchSizes: make([]int, maxListLen+1)}, "batch_sizes"},
		{"min next hops zero", PlanRequest{Scenario: "fig10", MinNextHops: []int{0}}, "min_next_hops"},
		{"timeout negative", PlanRequest{Scenario: "fig10", TimeoutMs: -1}, "timeout_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestPlanIDPacingVsIdentity(t *testing.T) {
	base := PlanRequest{Scenario: "fig10", Seed: 7}
	pacedOnly := []PlanRequest{
		{Scenario: "fig10", Seed: 7, MaxLevels: 3},
		{Scenario: "fig10", Seed: 7, TimeoutMs: 50},
		{Scenario: "fig10", Seed: 7, MaxLevels: 1, TimeoutMs: 1},
	}
	for i, r := range pacedOnly {
		if r.planID("fp") != base.planID("fp") {
			t.Errorf("pacing variant %d changed plan identity", i)
		}
	}
	shaping := []PlanRequest{
		{Scenario: "fig10", Seed: 8},
		{Scenario: "fig10", Seed: 7, Beam: 2},
		{Scenario: "fig10", Seed: 7, RandomCands: -1},
		{Scenario: "fig10", Seed: 7, BatchSizes: []int{2}},
		{Scenario: "fig10", Seed: 7, MinNextHops: []int{2}},
		{Scenario: "fig10", Seed: 7, SearchBare: true},
	}
	for i, r := range shaping {
		if r.planID("fp") == base.planID("fp") {
			t.Errorf("shaping variant %d did not change plan identity", i)
		}
	}
	if base.planID("fp-a") == base.planID("fp-b") {
		t.Errorf("plan ID ignores the base fingerprint")
	}
}

func TestExplainRequestValidate(t *testing.T) {
	cases := []struct {
		name    string
		req     ExplainRequest
		wantErr string
	}{
		{"rpas", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "rpas"}, ""},
		{"fib", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "fib"}, ""},
		{"route", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "route", Prefix: "0.0.0.0/0"}, ""},
		{"unknown scenario", ExplainRequest{Scenario: "ghost", Device: "fa.0", View: "rpas"}, "unknown scenario"},
		{"missing device", ExplainRequest{Scenario: "fig10", View: "rpas"}, "missing device"},
		{"unknown view", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "vibes"}, "unknown view"},
		{"route without prefix", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "route"}, "needs a prefix"},
		{"rpas with prefix", ExplainRequest{Scenario: "fig10", Device: "fa.0", View: "rpas", Prefix: "0.0.0.0/0"}, "takes no prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestEncodeBodyShape(t *testing.T) {
	body := encodeBody(&ErrorResponse{Error: "x"})
	if string(body) != "{\"error\":\"x\"}\n" {
		t.Errorf("canonical body: %q", body)
	}
}

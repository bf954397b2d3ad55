package guard

import (
	"context"
	"strings"
	"testing"
	"time"

	"centralium/internal/core"
	"centralium/internal/planner"
)

func TestEnvelopeSpecRoundTrip(t *testing.T) {
	cases := []Envelope{
		{},
		DefaultEnvelope(),
		{MaxPeakShare: 0.6},
		{MaxPeakShare: -1, MaxChurn: -1},
		{
			MaxBlackholeNs:  2e6,
			MaxPeakShare:    0.75,
			MaxConvergeNs:   50e6,
			MaxPeakNHG:      8,
			MaxChurn:        1000,
			MaxSessionDowns: 3,
			MaxAlerts:       2,
		},
		{MaxBlackholeNs: -1, MaxConvergeNs: -1, MaxPeakNHG: -1, MaxSessionDowns: -1, MaxAlerts: -1},
	}
	for _, e := range cases {
		spec := e.Spec()
		got, err := ParseEnvelope(spec)
		if err != nil {
			t.Fatalf("ParseEnvelope(%q): %v", spec, err)
		}
		if got != e {
			t.Errorf("round trip %q: got %+v, want %+v", spec, got, e)
		}
		// Spec is a fixed point: rendering the parsed form changes nothing.
		if again := got.Spec(); again != spec {
			t.Errorf("Spec not a fixed point: %q -> %q", spec, again)
		}
	}
	if s := (Envelope{}).Spec(); s != "" {
		t.Errorf("zero envelope Spec = %q, want empty", s)
	}
}

func TestParseEnvelopeTolerantSyntax(t *testing.T) {
	e, err := ParseEnvelope("  share = 0.5 ,, churn=10 , ")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if e.MaxPeakShare != 0.5 || e.MaxChurn != 10 {
		t.Errorf("parsed %+v", e)
	}
	if e, err := ParseEnvelope("   "); err != nil || e != (Envelope{}) {
		t.Errorf("blank spec: %+v, %v", e, err)
	}
}

func TestParseEnvelopeRejects(t *testing.T) {
	for _, spec := range []string{
		"share",        // no '='
		"share=abc",    // non-numeric
		"share=-1",     // negative (zero-bound is spelled 0)
		"turbulence=1", // unknown key
	} {
		if _, err := ParseEnvelope(spec); err == nil {
			t.Errorf("ParseEnvelope(%q) did not error", spec)
		}
	}
}

func TestEnvelopeString(t *testing.T) {
	if s := (Envelope{}).String(); s != "unbounded" {
		t.Errorf("zero envelope String = %q", s)
	}
	if s := DefaultEnvelope().String(); s != "blackhole<=5.00ms session-downs<=0" {
		t.Errorf("default envelope String = %q", s)
	}
	full := Envelope{
		MaxBlackholeNs: 1e6, MaxPeakShare: 0.6, MaxConvergeNs: 10e6,
		MaxPeakNHG: 4, MaxChurn: 100, MaxSessionDowns: -1, MaxAlerts: 1,
	}
	want := "blackhole<=1.00ms share<=0.600 converge<=10.00ms nhg<=4 churn<=100 session-downs<=0 alerts<=1"
	if s := full.String(); s != want {
		t.Errorf("full envelope String = %q, want %q", s, want)
	}
}

func TestViolationsEachCheck(t *testing.T) {
	full := Envelope{
		MaxBlackholeNs: 1e6, MaxPeakShare: 0.5, MaxConvergeNs: 10e6,
		MaxPeakNHG: 4, MaxChurn: 100, MaxSessionDowns: -1, MaxAlerts: -1,
	}
	hot := WaveMetrics{
		BlackholeNs: 2e6,
		PeakShare:   0.9, ShareDevice: "fsw-0",
		ConvergeNs: 20e6,
		PeakNHG:    8, NHGDevice: "ssw-1",
		Churn:        500,
		SessionDowns: 2, DownDevices: []string{"ssw-1", "fsw-0"},
		Alerts: 1, AlertDevices: []string{"rsw-2"}, AlertTags: []string{"blackhole:rsw-2"},
	}
	vs := full.Violations(hot)
	var checks []string
	for _, v := range vs {
		checks = append(checks, v.Check)
	}
	want := "blackhole share converge nhg churn session-downs alerts"
	if got := strings.Join(checks, " "); got != want {
		t.Fatalf("violation checks = %q, want %q", got, want)
	}
	// Attribution: single-device checks carry the offender, session-downs
	// sorts its device list, fleet-wide checks name nobody.
	if len(vs[0].Devices) != 0 {
		t.Errorf("blackhole violation names devices: %v", vs[0].Devices)
	}
	if len(vs[1].Devices) != 1 || vs[1].Devices[0] != "fsw-0" {
		t.Errorf("share violation devices = %v", vs[1].Devices)
	}
	if len(vs[5].Devices) != 2 || vs[5].Devices[0] != "fsw-0" || vs[5].Devices[1] != "ssw-1" {
		t.Errorf("session-downs devices not sorted: %v", vs[5].Devices)
	}
	if !strings.Contains(vs[6].Detail, "blackhole:rsw-2") {
		t.Errorf("alerts detail missing tag evidence: %q", vs[6].Detail)
	}
	// Violation.String carries the attribution when present.
	if s := vs[1].String(); s != "share [fsw-0]: peak share 0.900 > limit 0.500" {
		t.Errorf("violation string = %q", s)
	}
	if s := vs[0].String(); !strings.HasPrefix(s, "blackhole: ") {
		t.Errorf("fleet-wide violation string = %q", s)
	}

	// The same hot metrics pass a fully disabled envelope, and in-bounds
	// metrics pass the full one.
	if vs := (Envelope{}).Violations(hot); vs != nil {
		t.Errorf("disabled envelope flagged %v", vs)
	}
	cool := WaveMetrics{PeakShare: 0.4, ConvergeNs: 5e6, PeakNHG: 2, Churn: 10}
	if vs := full.Violations(cool); vs != nil {
		t.Errorf("in-bounds metrics flagged %v", vs)
	}
}

func TestRetryPolicyBudgetAndBackoff(t *testing.T) {
	for _, tc := range []struct {
		max, want int
	}{{-1, 0}, {0, 2}, {1, 1}, {5, 5}} {
		if got := (RetryPolicy{MaxRetries: tc.max}).retries(); got != tc.want {
			t.Errorf("retries(MaxRetries=%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
	var p RetryPolicy // defaults: 10ms base, 80ms cap
	for attempt, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 80 * time.Millisecond,
		9: 80 * time.Millisecond, // capped
	} {
		if got := p.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	custom := RetryPolicy{BackoffBase: time.Millisecond, BackoffCap: 3 * time.Millisecond}
	if got := custom.backoff(3); got != 3*time.Millisecond {
		t.Errorf("custom backoff(3) = %v, want cap 3ms", got)
	}
}

func TestCheckpointCodec(t *testing.T) {
	cp := &Checkpoint{
		Version: checkpointVersion, Campaign: "c", Waves: 3, Wave: 1, Attempt: 2,
		Retries: 2, Rollbacks: 1, Started: true, LastGood: "abc", Log: "line\n",
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Wave != 1 || got.Attempt != 2 || !got.Started || got.LastGood != "abc" {
		t.Errorf("round trip lost fields: %+v", got)
	}

	bad := []Checkpoint{
		{Version: 99, Waves: 1, LastGood: "x"},                                                   // wrong version
		{Version: checkpointVersion, Waves: 3, Wave: -1},                                         // negative wave
		{Version: checkpointVersion, Waves: 3, Wave: 3, LastGood: "x"},                           // wave past end, not done
		{Version: checkpointVersion, Waves: 3, Wave: 1},                                          // no last-good, not done
		{Version: checkpointVersion, Waves: 3, Wave: 1, Done: true, Aborted: true, FinalFP: "x"}, // aborted, no violations
	}
	for i := range bad {
		data, err := bad[i].Encode()
		if err != nil {
			t.Fatalf("encode bad[%d]: %v", i, err)
		}
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("bad checkpoint %d accepted: %+v", i, bad[i])
		}
	}
	if _, err := DecodeCheckpoint([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	// Version-1 records were written by campaigns that settled once per
	// wave: a paused one, and an aborted one from before violations were
	// stored in the checkpoint (its incident report nested in a binary
	// "report" field). Both are refused, so a resume restarts the campaign.
	for name, old := range map[string]string{
		"paused v1": `{"version":1,"campaign":"c","waves":3,"wave":1,"attempt":0,"retries":0,"rollbacks":0,` +
			`"last_good":"x","log":"line\n"}`,
		"pre-violations aborted v1": `{"version":1,"campaign":"c","waves":3,"wave":1,"attempt":2,"retries":2,"rollbacks":3,"started":true,` +
			`"last_good":"x","log":"line\n","done":true,"aborted":true,"quarantined":["fa.1"],"final_fp":"x","report":"Q0dJMQE="}`,
	} {
		if _, err := DecodeCheckpoint([]byte(old)); err == nil || !strings.Contains(err.Error(), "version 1 unsupported") {
			t.Errorf("%s checkpoint: err = %v, want a version refusal", name, err)
		}
	}
	// A terminal checkpoint may sit past the last wave and needs no
	// last-good fingerprint.
	term := &Checkpoint{Version: checkpointVersion, Waves: 3, Wave: 3, Done: true, FinalFP: "x"}
	data, err = term.Encode()
	if err != nil {
		t.Fatalf("encode terminal: %v", err)
	}
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Errorf("terminal checkpoint rejected: %v", err)
	}
}

func TestJournalFunc(t *testing.T) {
	var gotLevel int
	var gotCP []byte
	j := JournalFunc(func(level int, cp []byte) error {
		gotLevel, gotCP = level, cp
		return nil
	})
	if err := j.SaveProgress(2, []byte("cp")); err != nil {
		t.Fatalf("SaveProgress: %v", err)
	}
	if gotLevel != 2 || string(gotCP) != "cp" {
		t.Errorf("journal saw level=%d cp=%q", gotLevel, gotCP)
	}
}

func TestRunRejectsEmptyIntent(t *testing.T) {
	snap, _ := fig10Campaign(t, 1)
	if _, err := Run(context.Background(), snap, Campaign{}); err == nil ||
		!strings.Contains(err.Error(), "no intent") {
		t.Fatalf("empty campaign: %v", err)
	}
}

func TestResumeErrors(t *testing.T) {
	snap, c := fig10Campaign(t, 5)
	c.Objects = memObjects{}
	c.MaxWaves = 1
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.State != StatePaused {
		t.Fatalf("state = %s, want paused", res.State)
	}

	requireErr := func(name string, cp []byte, c Campaign, frag string) {
		t.Helper()
		_, err := Resume(context.Background(), cp, c)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: err = %v, want %q", name, err, frag)
		}
	}
	requireErr("garbage checkpoint", []byte("not json"), c, "decode checkpoint")

	noObjs := c
	noObjs.Objects = nil
	requireErr("nil object store", res.Checkpoint, noObjs, "needs an object store")

	empty := c
	empty.Objects = memObjects{}
	requireErr("missing snapshot", res.Checkpoint, empty, "missing from object store")

	renamed := c
	renamed.Name = "somebody-else"
	requireErr("campaign name mismatch", res.Checkpoint, renamed, "is for campaign")

	reshaped := c
	reshaped.Schedule = planner.Schedule{Steps: []planner.Step{{Devices: c.Intent.Devices()}}}
	requireErr("wave count mismatch", res.Checkpoint, reshaped, "waves")

	// The unmodified campaign still resumes to completion.
	c.MaxWaves = 0
	final, err := Resume(context.Background(), res.Checkpoint, c)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if final.State != StateCompleted {
		t.Fatalf("resumed terminal = %s\nlog:\n%s", final.State, final.Log)
	}
}

// TestCampaignDeploysSharedPrograms: a campaign handed programs compiled from
// its canonical intent (Campaign.Compiled) deploys exactly those, by
// reference, and compiles none of them again; an intent with a config that
// does not compile still fails NewExecution with the error it fails with
// when nothing is handed in.
func TestCampaignDeploysSharedPrograms(t *testing.T) {
	snap, p, err := planner.ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := FromParams(p)
	c.Intent = CanonicalIntent(c.Intent)
	for d, cfg := range CanonicalIntent(c.Intent) {
		if cfg != c.Intent[d] {
			t.Fatalf("%s: a canonical intent's config was copied again: programs compiled from it would not match", d)
		}
	}
	if c.Compiled, err = c.Intent.Compile(nil); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), snap, c)
	if err != nil || res.State != StateCompleted {
		t.Fatalf("campaign: %v, %+v", err, res)
	}
	for d, prog := range c.Compiled {
		if res.Net.Speaker(d).Program() != prog {
			t.Errorf("%s: runs a program other than the one the campaign was handed", d)
		}
	}

	bad := FromParams(p)
	bad.Intent = CanonicalIntent(bad.Intent)
	missing := bad.Intent.Devices()[1]
	bad.Intent[missing] = &core.Config{Version: 2, PathSelection: []core.PathSelectionStatement{{Name: ""}}}
	_, want := NewExecution(snap, bad)
	if bad.Compiled, err = bad.Intent.Compile(nil); err == nil || len(bad.Compiled) != len(bad.Intent)-1 {
		t.Fatalf("compile of an intent with one invalid config: %d programs, err %v", len(bad.Compiled), err)
	}
	if _, got := NewExecution(snap, bad); want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("NewExecution with shared programs: err %v, want %v", got, want)
	}
}

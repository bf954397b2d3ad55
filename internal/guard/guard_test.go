package guard

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// fig10Campaign builds the small Figure 10 equalization campaign the
// guard tests run: a quiescent base snapshot plus a campaign derived
// from the scenario's planner parameters.
func fig10Campaign(t testing.TB, seed int64) (*snapshot.Snapshot, Campaign) {
	t.Helper()
	snap, p, err := planner.ScenarioSetup("fig10", seed)
	if err != nil {
		t.Fatalf("scenario setup: %v", err)
	}
	c := FromParams(p)
	c.Name = "fig10-guarded"
	return snap, c
}

func TestCleanCampaignCompletes(t *testing.T) {
	snap, c := fig10Campaign(t, 1)
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.State != StateCompleted {
		t.Fatalf("state = %s, want completed\nlog:\n%s", res.State, res.Log)
	}
	if res.WavesDone != res.Waves || res.Waves == 0 {
		t.Fatalf("waves done %d of %d", res.WavesDone, res.Waves)
	}
	if res.Retries != 0 || res.Rollbacks != 0 {
		t.Fatalf("clean campaign used %d retries, %d rollbacks\nlog:\n%s", res.Retries, res.Rollbacks, res.Log)
	}
	if res.Net == nil || res.Snapshot == nil {
		t.Fatalf("terminal result missing fabric state")
	}
	if !strings.Contains(res.Log, "campaign complete") {
		t.Fatalf("log missing completion line:\n%s", res.Log)
	}
	requireConfigsUnedited(t, res)
}

func TestViolationRetriesThenCompletes(t *testing.T) {
	snap, c := fig10Campaign(t, 3)
	// A transient fault: restart a spine during wave 1, attempt 0 only.
	// The session-downs envelope trips, the guard rolls back and retries,
	// and the clean retry completes the campaign.
	c.Instrument = func(n *fabric.Network, wave, attempt int) {
		if wave == 1 && attempt == 0 {
			n.After(time.Millisecond, func() {
				n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false)
			})
		}
	}
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.State != StateCompleted {
		t.Fatalf("state = %s, want completed\nlog:\n%s", res.State, res.Log)
	}
	if res.Retries == 0 || res.Rollbacks == 0 {
		t.Fatalf("fault did not force a retry (retries=%d rollbacks=%d)\nlog:\n%s", res.Retries, res.Rollbacks, res.Log)
	}
	if !strings.Contains(res.Log, "VIOLATION session-downs") {
		t.Fatalf("log missing session-downs violation:\n%s", res.Log)
	}
	requireConfigsUnedited(t, res)
}

func TestPersistentFaultQuarantinesAndAborts(t *testing.T) {
	snap, c := fig10Campaign(t, 5)
	c.Retry.MaxRetries = 1
	// The fault re-arms on every attempt: the retry budget runs out and
	// the campaign aborts with the restarted device quarantined.
	c.Instrument = func(n *fabric.Network, wave, attempt int) {
		if wave == 1 {
			n.After(time.Millisecond, func() {
				n.RestartDevice(topo.SSWID(0, 0), 2*time.Millisecond, false)
			})
		}
	}
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.State != StateAborted {
		t.Fatalf("state = %s, want aborted\nlog:\n%s", res.State, res.Log)
	}
	if res.Report == nil || res.Report.Wave != 1 {
		t.Fatalf("missing or mislocated incident report: %+v", res.Report)
	}
	if len(res.Quarantined) == 0 {
		t.Fatalf("abort quarantined nobody\nlog:\n%s", res.Log)
	}
	// The report is the terminal record's facts: what the result says,
	// rolled back to the state the result ends on.
	if r := res.Report; r.Campaign != "fig10-guarded" || r.Log != res.Log || r.LastGood != res.FinalFP ||
		r.TimeNs != res.Snapshot.Now() || len(r.Violations) == 0 || !reflect.DeepEqual(r.Quarantined, res.Quarantined) {
		t.Fatalf("incident report disagrees with the result it seals: %+v", r)
	}
	if res.WavesDone != 1 {
		t.Fatalf("waves done = %d, want 1 (aborted at wave 1)", res.WavesDone)
	}
}

// requireConfigsUnedited is the immutability rule of core.Config as a
// property of a finished campaign: every live speaker's program still
// renders to what it rendered to when a wave captured it.
func requireConfigsUnedited(t *testing.T, res *Result) {
	t.Helper()
	for _, dev := range res.Net.Topo.Devices() {
		prog := res.Net.Speaker(dev.ID).Program()
		want, err := json.Marshal(prog.Config())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prog.JSON(), want) {
			t.Fatalf("%s: config edited after it was compiled:\n rendered: %s\n      now: %s", dev.ID, prog.JSON(), want)
		}
	}
}

// TestDegradedRetryLeavesIntentUnedited drives the decommission campaign,
// whose intent carries 75% thresholds, into the second retry of its one wave,
// which deploys a 50% override of them: the override is made on a copy, so
// the caller's intent and the configs earlier attempts deployed read as
// before.
func TestDegradedRetryLeavesIntentUnedited(t *testing.T) {
	snap, p, err := planner.ScenarioSetup("decommission", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := FromParams(p)
	c.Retry.MinNextHop = 50
	c.Instrument = func(n *fabric.Network, wave, attempt int) {
		if attempt < 2 {
			n.After(time.Millisecond, func() {
				n.RestartDevice(c.Intent.Devices()[0], 2*time.Millisecond, false)
			})
		}
	}
	before, _ := json.Marshal(c.Intent)
	res, err := Run(context.Background(), snap, c)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.State != StateCompleted || !strings.Contains(res.Log, "!mnh=50") {
		t.Fatalf("state %s; the campaign must complete on an mnh=50 retry shape\nlog:\n%s", res.State, res.Log)
	}
	if after, _ := json.Marshal(c.Intent); !bytes.Equal(before, after) {
		t.Fatalf("the run edited the caller's intent:\nbefore: %s\n after: %s", before, after)
	}
	requireConfigsUnedited(t, res)
}

package telemetry_test

import (
	"encoding/json"
	"testing"

	"centralium/internal/experiments"
	"centralium/internal/telemetry"
)

// TestCollectorReplayFromBenchtabRows consumes the machine-readable rows
// that `centralium tables -json` emits and replays them through a collector: each
// experiment arm becomes a traffic sample, and the funneling detector must
// reach the same verdict on the replayed rows as it does on the live
// event stream — native arm pathological, MinNextHop RPA arm clean.
func TestCollectorReplayFromBenchtabRows(t *testing.T) {
	rep, err := experiments.RunReport("fig4", 7)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through JSON, exactly as a replay pipeline reading
	// `tables -json` output would.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded experiments.Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "fig4" || decoded.Seed != 7 {
		t.Fatalf("report identity lost in round trip: %+v", decoded)
	}
	if len(decoded.Rows) != 3 {
		t.Fatalf("fig4 report has %d rows, want 3 (native, vendor-knob, minnexthop-rpa)", len(decoded.Rows))
	}

	verdict := map[string]bool{}
	for _, row := range decoded.Rows {
		c := telemetry.NewCollector(telemetry.CollectorOptions{})
		c.Emit(telemetry.Event{
			Kind:       telemetry.KindTrafficSample,
			Device:     "replay/" + row.Label,
			Share:      row.Values["peak_fadu_share"],
			FairShare:  row.Values["fair_share"],
			Blackholed: row.Values["peak_blackholed"],
		})
		verdict[row.Label] = len(c.AlertsBy("funneling")) > 0
	}
	if !verdict["native"] {
		t.Errorf("funneling detector silent on replayed native arm: %v", verdict)
	}
	if verdict["minnexthop-rpa"] {
		t.Errorf("funneling detector fired on replayed MinNextHop RPA arm: %v", verdict)
	}
}

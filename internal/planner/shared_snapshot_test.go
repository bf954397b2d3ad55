package planner

import (
	"bytes"
	"sync"
	"testing"
)

// TestSharedSnapshotConcurrentSearches pins the serving-path contract: many
// searches may be constructed and scored concurrently against one shared
// base snapshot (the centraliumd snapshot cache hands the same *Snapshot
// to every request). NewSearch must treat the snapshot as read-only —
// an earlier stateBytes implementation swapped Meta in place, which the
// race detector catches here — and every concurrent scoring must match
// the serial reference byte for byte.
func TestSharedSnapshotConcurrentSearches(t *testing.T) {
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta["origin"] = "shared-base"

	ref, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	if canon, err := snap.EncodeCanonical(); err != nil || !bytes.Equal(ref.base, canon) || ref.baseFP != fingerprint(canon) {
		t.Fatalf("the search's root state must be the base's canonical encoding, metadata left out (err %v)", err)
	}
	baseline := ref.BaselineSchedule()
	refRep, err := ScoreSchedule(snap, p, baseline)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	totals := make([]Score, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := ScoreSchedule(snap, p, baseline)
			if err != nil {
				errs[i] = err
				return
			}
			totals[i] = rep.Total
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if totals[i] != refRep.Total {
			t.Errorf("goroutine %d: score %v diverged from serial %v", i, totals[i], refRep.Total)
		}
	}
	if snap.Meta["origin"] != "shared-base" {
		t.Error("shared snapshot Meta mutated by concurrent searches")
	}
}

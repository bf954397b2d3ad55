package fib

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

// Tests for Touch, which leaves the residue of a no-op rewrite without being
// shown the hops (the frozen benchmark still times it; see Touch), and for
// the churn/peak counters under rewrite-heavy write sequences: a Touch must
// be indistinguishable — stats, exported state, warm flags, observer silence
// — from the same-set Install it stands for, and must never double-count NHG
// churn or move the occupancy peak.

var (
	fibP1 = netip.MustParsePrefix("10.0.0.0/8")
	fibP2 = netip.MustParsePrefix("10.1.0.0/16")

	hopsAB = []NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}
	hopsAC = []NextHop{{ID: "a", Weight: 2}, {ID: "c", Weight: 1}}
)

// TestTouchMatchesSameKeyInstall runs the same write script through two
// tables — one reinstalling the identical hop set, one Touching instead —
// and requires identical stats and exported state at every step.
func TestTouchMatchesSameKeyInstall(t *testing.T) {
	inst := New(0)
	touch := New(0)
	step := func(name string, fi, ft func()) {
		t.Helper()
		fi()
		ft()
		if a, b := inst.Stats(), touch.Stats(); a != b {
			t.Fatalf("%s: stats diverged:\n  install: %+v\n  touch:   %+v", name, a, b)
		}
		if a, b := fmt.Sprintf("%+v", inst.ExportState()), fmt.Sprintf("%+v", touch.ExportState()); a != b {
			t.Fatalf("%s: exported state diverged:\n  install: %s\n  touch:   %s", name, a, b)
		}
	}
	step("seed", func() { inst.Install(fibP1, hopsAB); inst.Install(fibP2, hopsAC) },
		func() { touch.Install(fibP1, hopsAB); touch.Install(fibP2, hopsAC) })
	step("same-key rewrite", func() { inst.Install(fibP1, hopsAB) }, func() { touch.Touch(fibP1) })
	step("warm then rewrite", func() { inst.MarkWarm(fibP2); inst.Install(fibP2, hopsAC) },
		func() { touch.MarkWarm(fibP2); touch.Touch(fibP2) })
	step("rewrite again", func() { inst.Install(fibP1, hopsAB) }, func() { touch.Touch(fibP1) })
	step("real change still works", func() { inst.Install(fibP1, hopsAC) }, func() { touch.Install(fibP1, hopsAC) })
}

// TestTouchDoesNotNotify pins the observer contract: Install's same-key
// early return fires before the observer, so Touch must be silent too.
func TestTouchDoesNotNotify(t *testing.T) {
	tbl := New(0)
	tbl.Install(fibP1, hopsAB)
	var events []WriteEvent
	tbl.SetObserver(func(ev WriteEvent) { events = append(events, ev) })
	tbl.Install(fibP1, hopsAB) // same-key: silent
	tbl.Touch(fibP1)           // must match
	if len(events) != 0 {
		t.Fatalf("same-key rewrites notified the observer: %+v", events)
	}
	tbl.Install(fibP1, hopsAC) // real change: audible
	if len(events) != 1 {
		t.Fatalf("real install produced %d events, want 1", len(events))
	}
}

// TestTouchClearsWarm: a warm entry that the decision process re-selects
// stops being "warm only" — Touch must clear the flag exactly as a
// reinstall would.
func TestTouchClearsWarm(t *testing.T) {
	tbl := New(0)
	tbl.Install(fibP1, hopsAB)
	tbl.MarkWarm(fibP1)
	if !tbl.IsWarm(fibP1) {
		t.Fatal("MarkWarm did not flag the entry")
	}
	tbl.Touch(fibP1)
	if tbl.IsWarm(fibP1) {
		t.Fatal("Touch left the warm flag set")
	}
	if tbl.Lookup(fibP1) == nil {
		t.Fatal("Touch removed the entry")
	}
}

// TestChurnPeakNoDoubleCountUnderTouch models a convergence window: a burst
// of recomputes where most runs re-select the same hop set. GroupChurn and
// PeakGroups must reflect only the distinct NHG objects ever created — Touches add writes, never churn or peak — and
// must equal what the same route history costs with full reinstalls.
func TestChurnPeakNoDoubleCountUnderTouch(t *testing.T) {
	full := New(4)
	incr := New(4)
	prefixes := make([]netip.Prefix, 6)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
	}
	hopSets := [][]NextHop{hopsAB, hopsAC, {{ID: "d", Weight: 1}}}

	// Seed both with the same entries, then run 50 "recompute rounds"
	// where each prefix re-selects its existing set (a Touch on the
	// incremental table) except every 7th round flips one prefix to a
	// different set (a real Install on both).
	for i, p := range prefixes {
		full.Install(p, hopSets[i%len(hopSets)])
		incr.Install(p, hopSets[i%len(hopSets)])
	}
	current := make([]int, len(prefixes))
	for i := range current {
		current[i] = i % len(hopSets)
	}
	for round := 1; round <= 50; round++ {
		for i, p := range prefixes {
			if round%7 == 0 && i == round%len(prefixes) {
				current[i] = (current[i] + 1) % len(hopSets)
				full.Install(p, hopSets[current[i]])
				incr.Install(p, hopSets[current[i]])
				continue
			}
			full.Install(p, hopSets[current[i]])
			incr.Touch(p)
		}
	}
	fs, is := full.Stats(), incr.Stats()
	if fs != is {
		t.Fatalf("stats diverged after churn window:\n  full: %+v\n  incr: %+v", fs, is)
	}
	// The whole history only ever used len(hopSets) distinct groups, and
	// at most that many concurrently: churn/peak must not scale with the
	// 300+ writes.
	if is.GroupChurn > len(hopSets)+len(prefixes) {
		t.Errorf("GroupChurn = %d, scaled with writes instead of distinct groups", is.GroupChurn)
	}
	if is.PeakGroups > len(hopSets) {
		t.Errorf("PeakGroups = %d, want <= %d", is.PeakGroups, len(hopSets))
	}
	if is.Writes != fs.Writes || is.Writes < 300 {
		t.Errorf("Writes = %d (full %d), want equal and >= 300", is.Writes, fs.Writes)
	}
}

// TestTouchRestoreRoundTrip: a table whose counters were advanced by
// Touch exports and restores like any other — the codec carries counters
// verbatim.
func TestTouchRestoreRoundTrip(t *testing.T) {
	tbl := New(8)
	tbl.Install(fibP1, hopsAB)
	tbl.MarkWarm(fibP1)
	tbl.Install(fibP2, hopsAC)
	tbl.Touch(fibP2)
	st := tbl.ExportState()
	back := NewFromState(st)
	if !reflect.DeepEqual(back.ExportState(), st) {
		t.Fatalf("round trip changed state:\n  before: %+v\n  after:  %+v", st, back.ExportState())
	}
	if a, b := back.Stats(), tbl.Stats(); a != b {
		t.Fatalf("restored stats %+v != original %+v", a, b)
	}
	if !back.IsWarm(fibP1) || back.IsWarm(fibP2) {
		t.Fatal("warm flags lost in round trip")
	}
}

// TestNewFromStateSharesOnlyNormalHops: a restored table points its groups
// at the state's hop sets when they are in normal form (sorted, weights
// reduced — what ExportState writes) and normalizes a copy otherwise; either
// way the state is left as it was.
func TestNewFromStateSharesOnlyNormalHops(t *testing.T) {
	p, q := netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.1.0.0/16")
	normal := []NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 3}}
	raw := []NextHop{{ID: "b", Weight: 2}, {ID: "a", Weight: 2}}
	st := TableState{Entries: []Entry{{Prefix: p, Hops: normal}, {Prefix: q, Hops: raw}}}
	tbl := NewFromState(st)
	if got := tbl.Lookup(p); &got[0] != &normal[0] {
		t.Error("a hop set in normal form was copied")
	}
	got := tbl.Lookup(q)
	if want := []NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}; !slices.Equal(got, want) {
		t.Errorf("Lookup(%v) = %v, want %v", q, got, want)
	}
	if raw[0] != (NextHop{ID: "b", Weight: 2}) || raw[1] != (NextHop{ID: "a", Weight: 2}) {
		t.Errorf("restore normalized the state's hop set in place: %v", raw)
	}
	if tbl.EntryKey(q) != NewFromState(tbl.ExportState()).EntryKey(q) {
		t.Error("group key changed across a second round trip")
	}
}

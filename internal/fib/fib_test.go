package fib

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestInstallLookup(t *testing.T) {
	tb := New(0)
	hops := []NextHop{{ID: "b", Weight: 1}, {ID: "a", Weight: 1}}
	tb.Install(pfx("10.0.0.0/8"), hops)
	got := tb.Lookup(pfx("10.0.0.0/8"))
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("Lookup = %v, want sorted [a b]", got)
	}
	if tb.Lookup(pfx("11.0.0.0/8")) != nil {
		t.Fatal("lookup of missing prefix returned entry")
	}
	st := tb.Stats()
	if st.Entries != 1 || st.Groups != 1 || st.Limit != DefaultGroupLimit {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestGroupSharing(t *testing.T) {
	tb := New(0)
	// Same logical distribution with scaled weights must share one group.
	tb.Install(pfx("10.1.0.0/16"), []NextHop{{"a", 2}, {"b", 2}})
	tb.Install(pfx("10.2.0.0/16"), []NextHop{{"a", 1}, {"b", 1}})
	tb.Install(pfx("10.3.0.0/16"), []NextHop{{"b", 3}, {"a", 3}}) // order-insensitive
	if st := tb.Stats(); st.Groups != 1 {
		t.Fatalf("Groups = %d, want 1 (shared)", st.Groups)
	}
	// Different ratio: new group.
	tb.Install(pfx("10.4.0.0/16"), []NextHop{{"a", 2}, {"b", 1}})
	if st := tb.Stats(); st.Groups != 2 {
		t.Fatalf("Groups = %d, want 2", st.Groups)
	}
}

func TestGroupRefcountRelease(t *testing.T) {
	tb := New(0)
	tb.Install(pfx("10.1.0.0/16"), []NextHop{{"a", 1}})
	tb.Install(pfx("10.2.0.0/16"), []NextHop{{"a", 1}})
	tb.Remove(pfx("10.1.0.0/16"))
	if st := tb.Stats(); st.Groups != 1 || st.Entries != 1 {
		t.Fatalf("Stats after one remove = %+v", st)
	}
	tb.Remove(pfx("10.2.0.0/16"))
	if st := tb.Stats(); st.Groups != 0 || st.Entries != 0 {
		t.Fatalf("Stats after both removed = %+v", st)
	}
	tb.Remove(pfx("10.2.0.0/16")) // double remove is a no-op
}

func TestReinstallSameGroupIsNoop(t *testing.T) {
	tb := New(0)
	tb.Install(pfx("10.0.0.0/8"), []NextHop{{"a", 1}})
	churn := tb.Stats().GroupChurn
	tb.Install(pfx("10.0.0.0/8"), []NextHop{{"a", 5}}) // same normalized group
	if got := tb.Stats().GroupChurn; got != churn {
		t.Fatalf("churn grew on no-op rewrite: %d -> %d", churn, got)
	}
}

func TestInstallEmptyRemoves(t *testing.T) {
	tb := New(0)
	tb.Install(pfx("10.0.0.0/8"), []NextHop{{"a", 1}})
	tb.Install(pfx("10.0.0.0/8"), nil)
	if tb.Lookup(pfx("10.0.0.0/8")) != nil {
		t.Fatal("empty install did not remove entry")
	}
}

func TestPeakAndOverflow(t *testing.T) {
	tb := New(2)
	for i := 0; i < 4; i++ {
		tb.Install(pfx(fmt.Sprintf("10.%d.0.0/16", i)), []NextHop{{fmt.Sprintf("nh%d", i), 1}})
	}
	st := tb.Stats()
	if st.PeakGroups != 4 {
		t.Errorf("PeakGroups = %d, want 4", st.PeakGroups)
	}
	if st.Overflows != 2 {
		t.Errorf("Overflows = %d, want 2 (groups 3 and 4 exceed limit 2)", st.Overflows)
	}
	// Release groups; peak must not decrease.
	for i := 0; i < 4; i++ {
		tb.Remove(pfx(fmt.Sprintf("10.%d.0.0/16", i)))
	}
	if got := tb.Stats().PeakGroups; got != 4 {
		t.Errorf("PeakGroups after removal = %d, want 4", got)
	}
	tb.ResetStats()
	if got := tb.Stats().PeakGroups; got != 0 {
		t.Errorf("PeakGroups after reset = %d, want 0 (no live groups)", got)
	}
}

func TestWarmEntries(t *testing.T) {
	tb := New(0)
	p := pfx("0.0.0.0/0")
	tb.MarkWarm(p) // no entry: no-op
	if tb.IsWarm(p) {
		t.Fatal("warm without entry")
	}
	tb.Install(p, []NextHop{{"a", 1}})
	tb.MarkWarm(p)
	if !tb.IsWarm(p) {
		t.Fatal("MarkWarm did not stick")
	}
	if tb.Lookup(p) == nil {
		t.Fatal("warm entry must still forward")
	}
	tb.Install(p, []NextHop{{"b", 1}})
	if tb.IsWarm(p) {
		t.Fatal("reinstall must clear warm flag")
	}
	tb.MarkWarm(p)
	tb.Remove(p)
	if tb.IsWarm(p) {
		t.Fatal("remove must clear warm flag")
	}
}

func TestLookupLPM(t *testing.T) {
	tb := New(0)
	tb.Install(pfx("0.0.0.0/0"), []NextHop{{"default", 1}})
	tb.Install(pfx("10.0.0.0/8"), []NextHop{{"agg", 1}})
	tb.Install(pfx("10.1.0.0/16"), []NextHop{{"specific", 1}})
	tests := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "specific"},
		{"10.2.0.1", "agg"},
		{"192.168.0.1", "default"},
	}
	for _, tt := range tests {
		got := tb.LookupLPM(netip.MustParseAddr(tt.addr))
		if len(got) != 1 || got[0].ID != tt.want {
			t.Errorf("LookupLPM(%s) = %v, want %s", tt.addr, got, tt.want)
		}
	}
	empty := New(0)
	if empty.LookupLPM(netip.MustParseAddr("1.1.1.1")) != nil {
		t.Error("LPM on empty table returned entry")
	}
}

func TestPrefixesSorted(t *testing.T) {
	tb := New(0)
	tb.Install(pfx("10.2.0.0/16"), []NextHop{{"a", 1}})
	tb.Install(pfx("10.1.0.0/16"), []NextHop{{"a", 1}})
	ps := tb.Prefixes()
	if len(ps) != 2 || ps[0].String() > ps[1].String() {
		t.Fatalf("Prefixes = %v", ps)
	}
}

func groupKey(hops []NextHop) string { return string(New(0).renderKey(hops)) }

func TestGroupKeyProperties(t *testing.T) {
	// Property: key is invariant under permutation and weight scaling.
	f := func(w1, w2 uint8, scale uint8) bool {
		a := int(w1%10) + 1
		b := int(w2%10) + 1
		s := int(scale%5) + 1
		k1 := groupKey([]NextHop{{"x", a}, {"y", b}})
		k2 := groupKey([]NextHop{{"y", b * s}, {"x", a * s}})
		return k1 == k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Distinct ratios produce distinct keys.
	if groupKey([]NextHop{{"x", 1}, {"y", 2}}) == groupKey([]NextHop{{"x", 2}, {"y", 1}}) {
		t.Error("distinct ratios share a key")
	}
	// Zero weights do not crash key computation.
	_ = groupKey([]NextHop{{"x", 0}, {"y", 0}})
}

func TestChurnCountsDistinctGroups(t *testing.T) {
	tb := New(0)
	p := pfx("10.0.0.0/8")
	// Flip between two distinct groups 10 times: churn counts each creation.
	for i := 0; i < 10; i++ {
		tb.Install(p, []NextHop{{"a", 1}})
		tb.Install(p, []NextHop{{"b", 1}})
	}
	st := tb.Stats()
	if st.GroupChurn != 20 {
		t.Errorf("GroupChurn = %d, want 20", st.GroupChurn)
	}
	if st.Writes != 20 {
		t.Errorf("Writes = %d, want 20", st.Writes)
	}
}

// TestGenTracksForwardingChanges: Gen is what a resolved-hop cache keys on,
// so it must advance on every write that changes a lookup's answer and on
// nothing else.
func TestGenTracksForwardingChanges(t *testing.T) {
	tb := New(0)
	p, q := pfx("10.0.0.0/8"), pfx("10.1.0.0/16")
	steps := []struct {
		name    string
		write   func()
		changes bool
	}{
		{"install", func() { tb.Install(p, []NextHop{{"a", 1}, {"b", 1}}) }, true},
		{"no-op rewrite", func() { tb.Install(p, []NextHop{{"a", 1}, {"b", 1}}) }, false},
		{"no-op rewrite, scaled and unsorted", func() { tb.Install(p, []NextHop{{"b", 2}, {"a", 2}}) }, false},
		{"mark warm", func() { tb.MarkWarm(p) }, false},
		{"mark warm, absent prefix", func() { tb.MarkWarm(q) }, false},
		{"touch", func() { tb.Touch(p) }, false},
		{"reset stats", func() { tb.ResetStats() }, false},
		{"reweight", func() { tb.Install(p, []NextHop{{"a", 3}, {"b", 1}}) }, true},
		{"more specific", func() { tb.Install(q, []NextHop{{"a", 3}, {"b", 1}}) }, true},
		{"remove", func() { tb.Remove(q) }, true},
		{"remove absent", func() { tb.Remove(q) }, false},
		{"empty install", func() { tb.Install(p, nil) }, true},
		{"empty install, absent", func() { tb.Install(p, nil) }, false},
	}
	for _, st := range steps {
		before := tb.Gen()
		st.write()
		if moved := tb.Gen() != before; moved != st.changes {
			t.Errorf("%s: Gen moved = %v, want %v", st.name, moved, st.changes)
		}
	}
	if got := NewFromState(tb.ExportState()).Gen(); got != 0 {
		t.Errorf("restored Gen = %d, want 0", got)
	}
}

package fib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// Install recognises a rewrite of the live entry with its own hop set before
// it renders a key. These tests pin which installs take that path, that the
// path leaves exactly what the key path's same-key return leaves, and that a
// table with the path disabled cannot be told apart.

// observed renders everything a caller can see of a table.
func observed(t *Table) string {
	return fmt.Sprintf("%+v %+v", t.Stats(), t.ExportState())
}

func TestInstallNoOpRewrite(t *testing.T) {
	seed := []NextHop{{ID: "a", Weight: 1}, {ID: "b", Weight: 1}}
	for _, tc := range []struct {
		name string
		hops []NextHop
		warm bool
		fast bool
		noop bool
	}{
		{name: "equal set", hops: []NextHop{{"a", 1}, {"b", 1}}, fast: true, noop: true},
		{name: "GCD-scaled equal set", hops: []NextHop{{"a", 2}, {"b", 2}}, fast: true, noop: true},
		{name: "over a warm entry", hops: []NextHop{{"a", 1}, {"b", 1}}, warm: true, fast: true, noop: true},
		{name: "unsorted equal set", hops: []NextHop{{"b", 1}, {"a", 1}}, noop: true},
		{name: "one weight different", hops: []NextHop{{"a", 1}, {"b", 2}}},
		{name: "one hop fewer", hops: []NextHop{{"a", 1}}},
		{name: "negated weights", hops: []NextHop{{"a", -1}, {"b", -1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fastTbl, keyed := New(0), New(0)
			keyed.SetKeyedOnly(true)
			var events int
			for _, tbl := range []*Table{fastTbl, keyed} {
				tbl.Install(fibP1, seed)
				tbl.Install(fibP2, hopsAC)
				if tc.warm {
					tbl.MarkWarm(fibP1)
				}
			}
			fastTbl.SetObserver(func(WriteEvent) { events++ })
			if got := fastTbl.SameSet(fibP1, tc.hops); got != tc.fast {
				t.Fatalf("element-wise test = %v, want %v", got, tc.fast)
			}
			if tc.fast {
				if allocs := testing.AllocsPerRun(100, func() { fastTbl.Install(fibP1, tc.hops) }); allocs != 0 {
					t.Errorf("fast path: %.1f allocs/run, want 0", allocs)
				}
				for i := 0; i < 101; i++ { // AllocsPerRun's warm-up plus its runs
					keyed.Install(fibP1, tc.hops)
				}
			} else {
				fastTbl.Install(fibP1, tc.hops)
				keyed.Install(fibP1, tc.hops)
			}
			if tc.noop != (events == 0) {
				t.Errorf("observer heard %d events, no-op rewrite = %v", events, tc.noop)
			}
			if fastTbl.IsWarm(fibP1) {
				t.Error("install left the warm flag set")
			}
			if a, b := observed(fastTbl), observed(keyed); a != b {
				t.Errorf("tables diverged:\n  element-wise: %s\n  keyed:        %s", a, b)
			}
		})
	}
}

// TestInstallNoOpRewriteDifferential drives a table and a keyed-only table
// through 1,000 random installs, removals and warm marks and requires equal
// observer streams, stats and exported state after every step.
func TestInstallNoOpRewriteDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	prefixes := make([]netip.Prefix, 5)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
	}
	ids := []string{"a", "b", "c", "d"}
	randomHops := func() []NextHop {
		var hops []NextHop
		scale := 1 + rng.Intn(3)
		for _, id := range ids {
			if rng.Intn(3) > 0 {
				hops = append(hops, NextHop{ID: id, Weight: scale * (1 + rng.Intn(2))})
			}
		}
		if rng.Intn(4) == 0 {
			rng.Shuffle(len(hops), func(i, j int) { hops[i], hops[j] = hops[j], hops[i] })
		}
		return hops
	}

	fastTbl, keyed := New(3), New(3)
	keyed.SetKeyedOnly(true)
	var fastEv, keyedEv []WriteEvent
	fastTbl.SetObserver(func(ev WriteEvent) { fastEv = append(fastEv, ev) })
	keyed.SetObserver(func(ev WriteEvent) { keyedEv = append(keyedEv, ev) })
	last := make(map[netip.Prefix][]NextHop)
	fastHits := 0
	for step := 0; step < 1000; step++ {
		p := prefixes[rng.Intn(len(prefixes))]
		var op string
		switch r := rng.Intn(10); {
		case r < 4: // repeat the prefix's last install, as the decision process mostly does
			hops := last[p]
			if fastTbl.SameSet(p, hops) {
				fastHits++
			}
			op = fmt.Sprintf("reinstall %v %v", p, hops)
			fastTbl.Install(p, hops)
			keyed.Install(p, hops)
		case r < 7:
			hops := randomHops()
			last[p] = hops
			op = fmt.Sprintf("install %v %v", p, hops)
			fastTbl.Install(p, hops)
			keyed.Install(p, hops)
		case r < 8:
			op = fmt.Sprintf("remove %v", p)
			fastTbl.Remove(p)
			keyed.Remove(p)
		default:
			op = fmt.Sprintf("mark-warm %v", p)
			fastTbl.MarkWarm(p)
			keyed.MarkWarm(p)
		}
		if a, b := observed(fastTbl), observed(keyed); a != b {
			t.Fatalf("step %d (%s): tables diverged:\n  element-wise: %s\n  keyed:        %s", step, op, a, b)
		}
		if !reflect.DeepEqual(fastEv, keyedEv) {
			t.Fatalf("step %d (%s): observer streams diverged", step, op)
		}
	}
	if fastHits < 100 {
		t.Fatalf("only %d of 1000 steps took the element-wise path; the differential is vacuous", fastHits)
	}
}

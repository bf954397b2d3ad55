package bgp

import (
	"net/netip"
	"testing"

	"centralium/internal/core"
)

// rpaEqualize returns the Section 4.4.1 RPA: select all backbone-tagged
// paths regardless of AS-path length.
func rpaEqualize() *core.Config {
	return &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "equalize",
		Destination: core.Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
		PathSets: []core.PathSet{{
			Name:      "backbone",
			Signature: core.PathSignature{Communities: []string{"BACKBONE_DEFAULT_ROUTE"}},
		}},
	}}}
}

func TestRPAEqualizesPathLengths(t *testing.T) {
	// The Scenario 1 fix: with the RPA installed, an SSW uses both the old
	// long path and the new short path instead of funneling to the new one.
	s := newTestSpeaker("ssw", 300)
	if err := s.SetRPA(rpaEqualize()); err != nil {
		t.Fatal(err)
	}
	s.AddPeer("old", "fav1.0", 101, 100)
	s.AddPeer("new", "fav2.0", 102, 100)
	s.HandleUpdate("old", Update{Prefix: defaultRoute, ASPath: []uint32{101, 50, 60}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	s.HandleUpdate("new", Update{Prefix: defaultRoute, ASPath: []uint32{102, 60}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})

	hops := s.FIB().Lookup(defaultRoute)
	if len(hops) != 2 {
		t.Fatalf("FIB = %v, want both paths selected", hops)
	}
	if s.Stats().RPASelections == 0 {
		t.Fatal("RPASelections not counted")
	}
}

func TestRPARemovalRestoresNative(t *testing.T) {
	s := newTestSpeaker("ssw", 300)
	s.AddPeer("old", "fav1.0", 101, 100)
	s.AddPeer("new", "fav2.0", 102, 100)
	s.HandleUpdate("old", Update{Prefix: defaultRoute, ASPath: []uint32{101, 50, 60}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	s.HandleUpdate("new", Update{Prefix: defaultRoute, ASPath: []uint32{102, 60}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	if err := s.SetRPA(rpaEqualize()); err != nil {
		t.Fatal(err)
	}
	if got := len(s.FIB().Lookup(defaultRoute)); got != 2 {
		t.Fatalf("with RPA: %d hops, want 2", got)
	}
	// "The RPA can just be removed, restoring BGP to its native path
	// selection" (§4.4.1) — no policy residue.
	if err := s.SetRPA(nil); err != nil {
		t.Fatal(err)
	}
	hops := s.FIB().Lookup(defaultRoute)
	if len(hops) != 1 || hops[0].ID != "new" {
		t.Fatalf("after removal: %v, want only the short path", hops)
	}
}

func TestRPALeastFavorableAdvertisement(t *testing.T) {
	s := newTestSpeaker("r6", 600)
	if err := s.SetRPA(rpaEqualize()); err != nil {
		t.Fatal(err)
	}
	s.AddPeer("via2", "r2", 200, 100)
	s.AddPeer("via5", "r5", 500, 100)
	s.AddPeer("down", "r3", 301, 100)
	s.HandleUpdate("via2", Update{Prefix: defaultRoute, ASPath: []uint32{200, 100}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	s.HandleUpdate("via5", Update{Prefix: defaultRoute, ASPath: []uint32{500, 100, 100, 100}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})

	msgs := drainOutbox(s)
	// The advertised path must be the LONGEST selected one (via r5), so it
	// must not go back to r5 (split horizon) but must go to r2 and r3.
	if got := msgs["via5"]; len(got) > 0 && !got[len(got)-1].Withdraw {
		t.Fatalf("advertised toward the source of the least-favorable path: %+v", got)
	}
	down := msgs["down"]
	if len(down) == 0 {
		t.Fatal("no downstream advertisement")
	}
	last := down[len(down)-1]
	want := []uint32{600, 500, 100, 100, 100}
	if len(last.ASPath) != len(want) {
		t.Fatalf("advertised path = %v, want %v (least favorable)", last.ASPath, want)
	}
	for i := range want {
		if last.ASPath[i] != want[i] {
			t.Fatalf("advertised path = %v, want %v", last.ASPath, want)
		}
	}
}

func TestRPAAdvertiseBestModeAblation(t *testing.T) {
	s := NewSpeaker(Config{ID: "r6", ASN: 600, Multipath: true, Advertise: AdvertiseBest}, nil)
	if err := s.SetRPA(rpaEqualize()); err != nil {
		t.Fatal(err)
	}
	s.AddPeer("via2", "r2", 200, 100)
	s.AddPeer("via5", "r5", 500, 100)
	s.HandleUpdate("via2", Update{Prefix: defaultRoute, ASPath: []uint32{200, 100}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	s.HandleUpdate("via5", Update{Prefix: defaultRoute, ASPath: []uint32{500, 100, 100, 100}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})

	msgs := drainOutbox(s)
	// Naive mode advertises the BEST (short, via r2) path — including to r5,
	// which is what creates the Figure 9 loop.
	got := msgs["via5"]
	if len(got) == 0 {
		t.Fatal("naive mode did not advertise to r5")
	}
	last := got[len(got)-1]
	if last.Withdraw {
		t.Fatalf("naive mode withdrew instead: %+v", last)
	}
	want := []uint32{600, 200, 100}
	if len(last.ASPath) != len(want) {
		t.Fatalf("advertised path = %v, want best %v", last.ASPath, want)
	}
}

func TestBgpNativeMinNextHopKeepFibWarm(t *testing.T) {
	// Section 4.4.2: PathSetList [], BgpNativeMinNextHop 75%, keep warm.
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:                     "protect",
		Destination:              core.Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
		BgpNativeMinNextHop:      core.MinNextHop{Percent: 75},
		KeepFibWarmIfMnhViolated: true,
	}}}
	s := newTestSpeaker("ssw", 300)
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	for i, dev := range []string{"fadu.0", "fadu.1", "fadu.2", "fadu.3"} {
		s.AddPeer(SessionID(dev), dev, uint32(101+i), 100)
	}
	s.AddPeer("down", "fsw.0", 400, 100)
	for i, dev := range []string{"fadu.0", "fadu.1", "fadu.2", "fadu.3"} {
		s.HandleUpdate(SessionID(dev), Update{Prefix: defaultRoute,
			ASPath: []uint32{uint32(101 + i), 60}, Communities: []string{"BACKBONE_DEFAULT_ROUTE"}})
	}
	drainOutbox(s)
	if got := len(s.FIB().Lookup(defaultRoute)); got != 4 {
		t.Fatalf("FIB hops = %d, want 4", got)
	}

	// Lose one next hop: 3/4 = 75%, still OK. The best path may change
	// (triggering a re-advertisement) but no withdrawal may go downstream.
	s.HandleUpdate("fadu.0", Update{Prefix: defaultRoute, Withdraw: true})
	msgs := drainOutbox(s)
	for _, u := range msgs["down"] {
		if u.Withdraw {
			t.Fatalf("withdrew at exactly 75%%: %+v", msgs)
		}
	}
	// Lose another: 2/4 = 50% < 75% -> withdraw but keep FIB warm.
	s.HandleUpdate("fadu.1", Update{Prefix: defaultRoute, Withdraw: true})
	msgs = drainOutbox(s)
	if len(msgs["down"]) != 1 || !msgs["down"][0].Withdraw {
		t.Fatalf("MNH violation did not withdraw: %+v", msgs)
	}
	if s.FIB().Lookup(defaultRoute) == nil {
		t.Fatal("warm FIB entry dropped")
	}
	if !s.FIB().IsWarm(defaultRoute) {
		t.Fatal("entry not marked warm")
	}
	if s.Stats().MnhWithdrawals == 0 {
		t.Fatal("MnhWithdrawals not counted")
	}
}

func TestBgpNativeMinNextHopColdFib(t *testing.T) {
	// Same as above but KeepFibWarm off: the FIB entry must be removed
	// (packets fall back to less-specific routes — the Figure 14 safe case).
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:                "protect",
		Destination:         core.Destination{Community: "NEW_ROUTE"},
		BgpNativeMinNextHop: core.MinNextHop{Percent: 75},
	}}}
	s := newTestSpeaker("ssw", 300)
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.0/8")
	for i, dev := range []string{"fa.0", "fa.1"} {
		s.AddPeer(SessionID(dev), dev, uint32(101+i), 100)
		s.HandleUpdate(SessionID(dev), Update{Prefix: p,
			ASPath: []uint32{uint32(101 + i)}, Communities: []string{"NEW_ROUTE"}})
	}
	if s.FIB().Lookup(p) == nil {
		t.Fatal("route not installed at full health")
	}
	s.HandleUpdate("fa.0", Update{Prefix: p, Withdraw: true})
	if s.FIB().Lookup(p) != nil {
		t.Fatal("cold-FIB violation kept the entry installed")
	}
}

func TestIngressRouteFilterRPA(t *testing.T) {
	cfg := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name:          "boundary",
		PeerSignature: "^eb",
		Ingress: &core.PrefixFilter{Rules: []core.PrefixRule{
			{Prefix: "0.0.0.0/0"},
		}},
	}}}
	s := newTestSpeaker("fauu", 300)
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	s.AddPeer("e", "eb.0", 100, 100)
	// Default route allowed.
	s.HandleUpdate("e", Update{Prefix: defaultRoute, ASPath: []uint32{100}})
	if s.FIB().Lookup(defaultRoute) == nil {
		t.Fatal("allowed route rejected")
	}
	// A more specific prefix is denied at the boundary.
	leak := netip.MustParsePrefix("10.1.2.0/24")
	s.HandleUpdate("e", Update{Prefix: leak, ASPath: []uint32{100}})
	if s.FIB().Lookup(leak) != nil {
		t.Fatal("filtered route installed")
	}
	if s.Stats().FilterRejects != 1 {
		t.Fatalf("FilterRejects = %d, want 1", s.Stats().FilterRejects)
	}
}

func TestIngressFilterClearsPriorRoute(t *testing.T) {
	// Route accepted, then the filter tightens: a re-announcement that is
	// now denied must also evict the old RIB entry.
	s := newTestSpeaker("fauu", 300)
	s.AddPeer("e", "eb.0", 100, 100)
	leak := netip.MustParsePrefix("10.1.2.0/24")
	s.HandleUpdate("e", Update{Prefix: leak, ASPath: []uint32{100}})
	if s.FIB().Lookup(leak) == nil {
		t.Fatal("route not installed pre-filter")
	}
	cfg := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name:    "tight",
		Ingress: &core.PrefixFilter{Rules: []core.PrefixRule{{Prefix: "0.0.0.0/0"}}},
	}}}
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	s.HandleUpdate("e", Update{Prefix: leak, ASPath: []uint32{100}})
	if s.FIB().Lookup(leak) != nil {
		t.Fatal("denied re-announcement left stale entry")
	}
}

func TestEgressRouteFilterRPA(t *testing.T) {
	cfg := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name:          "no-specifics-up",
		PeerSignature: "^eb",
		Egress: &core.PrefixFilter{Rules: []core.PrefixRule{
			{Prefix: "10.0.0.0/8", MinMaskLength: 8, MaxMaskLength: 16},
		}},
	}}}
	s := newTestSpeaker("fauu", 300)
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	s.AddPeer("up", "eb.0", 100, 100)
	s.AddPeer("down", "fadu.0", 200, 100)
	ok := netip.MustParsePrefix("10.5.0.0/16")
	bad := netip.MustParsePrefix("10.5.1.0/24")
	s.HandleUpdate("down", Update{Prefix: ok, ASPath: []uint32{200}})
	s.HandleUpdate("down", Update{Prefix: bad, ASPath: []uint32{200}})
	msgs := drainOutbox(s)
	var sawOK, sawBad bool
	for _, u := range msgs["up"] {
		if u.Withdraw {
			continue
		}
		if u.Prefix == ok {
			sawOK = true
		}
		if u.Prefix == bad {
			sawBad = true
		}
	}
	if !sawOK {
		t.Error("allowed aggregate not advertised upstream")
	}
	if sawBad {
		t.Error("more-specific leaked upstream past egress filter")
	}
}

func TestRouteAttributeExpiration(t *testing.T) {
	clock := int64(0)
	s := NewSpeaker(Config{ID: "x", ASN: 300, Multipath: true}, func() int64 { return clock })
	cfg := &core.Config{RouteAttribute: []core.RouteAttributeStatement{{
		Name:        "temp",
		Destination: core.Destination{},
		NextHopWeights: []core.NextHopWeight{
			{Signature: core.PathSignature{NextHopRegex: "^a"}, Weight: 3},
		},
		ExpiresAt: 100,
	}}}
	s.AddPeer("sa", "a.0", 101, 100)
	s.AddPeer("sb", "b.0", 102, 100)
	if err := s.SetRPA(cfg); err != nil {
		t.Fatal(err)
	}
	s.HandleUpdate("sa", Update{Prefix: defaultRoute, ASPath: []uint32{101}})
	s.HandleUpdate("sb", Update{Prefix: defaultRoute, ASPath: []uint32{102}})
	hops := s.FIB().Lookup(defaultRoute)
	w := map[string]int{}
	for _, h := range hops {
		w[h.ID] = h.Weight
	}
	if w["sa"] != 3*w["sb"] {
		t.Fatalf("weights = %v, want 3:1 before expiry", w)
	}
	// Advance the clock past expiry; a re-announcement reverts to ECMP.
	clock = 200
	s.HandleUpdate("sa", Update{Prefix: defaultRoute, ASPath: []uint32{101}, MED: 0})
	// Force recompute via a content change that does not alter selection.
	s.HandleUpdate("sb", Update{Prefix: defaultRoute, ASPath: []uint32{102}, MED: 0})
	// Recompute happens on duplicate too? Duplicates are suppressed at RIB
	// level only if identical — they are identical, so force via SetRPA-less
	// path: drain/undrain triggers recompute of all prefixes.
	s.SetDrained(true)
	s.SetDrained(false)
	hops = s.FIB().Lookup(defaultRoute)
	w = map[string]int{}
	for _, h := range hops {
		w[h.ID] = h.Weight
	}
	if w["sa"] != w["sb"] {
		t.Fatalf("weights = %v, want ECMP after expiry", w)
	}
}

// threeRegexRPA is a fixed config with three regexes, one per signature field.
func threeRegexRPA() *core.Config {
	return &core.Config{Version: 1, PathSelection: []core.PathSelectionStatement{{
		Name:        "prefer",
		Destination: core.Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
		PathSets: []core.PathSet{
			{Name: "short", Signature: core.PathSignature{ASPathRegex: "^(101|102) 60$"}},
			{Name: "new", Signature: core.PathSignature{PeerRegex: "^fav2\\."}},
			{Name: "old", Signature: core.PathSignature{NextHopRegex: "^fav1\\.[0-9]+$"}},
		},
	}}}
}

// TestSetRPACompilesOnce bounds what a deploy allocates on a speaker with no
// prefixes to recompute: one compile of the three regexes and an evaluator.
// Measured 160 allocations (go1.24); the tree that validated (one compile),
// compiled again and then cloned the config through JSON spent 334.
func TestSetRPACompilesOnce(t *testing.T) {
	s := newTestSpeaker("ssw", 300)
	cfg := threeRegexRPA()
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.SetRPA(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("SetRPA allocated %.0f times, want at most 200: the config is compiled once and kept by pointer", allocs)
	}
	if s.RPAConfig() != cfg || s.Program().Config() != cfg {
		t.Fatal("the speaker must keep the deployed config by reference")
	}
	// SetRPA is Compile plus SetProgram: a caller holding the program — a
	// search deploying one intent to fork after fork — pays the evaluator and
	// no compile (4 allocations measured).
	prog, err := core.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared := testing.AllocsPerRun(50, func() { s.SetProgram(prog) }); shared > 8 {
		t.Fatalf("SetProgram allocated %.0f times, want at most 8: nothing is left to compile", shared)
	}
	if s.Program() != prog || !s.Dirty() {
		t.Fatal("the speaker must run the very program it was handed, and know it changed")
	}
	fresh := newTestSpeaker("ssw", 300)
	if fresh.Program() != noRPA {
		t.Fatal("a new speaker must share the package's empty program")
	}
	if err := s.SetRPA(nil); err != nil || s.Program() != noRPA {
		t.Fatalf("SetRPA(nil) must fall back to the shared empty program (err %v)", err)
	}
	st, err := s.ExportState()
	if err != nil || st.RPA != nil {
		t.Fatalf("an empty config at version 0 exports no program (err %v)", err)
	}
	if restored, err := NewSpeakerFromState(st, nil); err != nil || restored.Program() != noRPA {
		t.Fatalf("a state without a program restores onto the shared empty one (err %v)", err)
	}
}

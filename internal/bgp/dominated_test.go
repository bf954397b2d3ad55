package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"centralium/internal/core"
	"centralium/internal/telemetry"
)

// The dominated-change skip against the oracle. A speaker that skips the
// decision run for an update dominated by its advertised route (see
// dominated) and an oracle speaker that never does walk the same operations;
// after every one, on top of what speakerPair.step compares (outboxes and
// ExportState), the counters, the FIB counters and state, each prefix's
// Decision and AdjRIBOut, and the tap streams must be equal. Every case also
// pins how many changes were skipped, so the equality cannot hold vacuously.

type skipPair struct {
	*speakerPair
	taps     [2][]string
	prefixes []netip.Prefix
}

func newSkipPair(t *testing.T, cfg Config, prefixes ...netip.Prefix) *skipPair {
	sp := &skipPair{speakerPair: newSpeakerPair(t, cfg), prefixes: prefixes}
	sp.attachTaps()
	return sp
}

// attachTaps records both speakers' tap streams as text.
func (sp *skipPair) attachTaps() {
	for i, s := range []*Speaker{sp.full, sp.incr} {
		i := i
		s.SetTap(telemetry.TapFunc(func(ev telemetry.Event) {
			sp.taps[i] = append(sp.taps[i], fmt.Sprintf("%+v", ev))
		}))
	}
}

// skipped returns the skipping speaker's count of skipped changes, after
// checking that the oracle has none.
func (sp *skipPair) skipped() int {
	sp.t.Helper()
	if n := sp.full.IncrementalStats().SkippedRecomputes; n != 0 {
		sp.t.Fatalf("the oracle skipped %d decision runs", n)
	}
	return sp.incr.IncrementalStats().SkippedRecomputes
}

// step runs op on both speakers, compares everything, and checks that it
// skipped exactly wantSkips decision runs (-1: any number).
func (sp *skipPair) step(name string, wantSkips int, op func(s *Speaker)) {
	sp.t.Helper()
	before := sp.skipped()
	sp.speakerPair.step(name, op)
	if got := sp.skipped() - before; wantSkips >= 0 && got != wantSkips {
		sp.t.Fatalf("%s: skipped %d decision runs, want %d", name, got, wantSkips)
	}
	sp.compare(name)
}

func (sp *skipPair) compare(name string) {
	sp.t.Helper()
	diff := func(what string, a, b any) {
		sp.t.Helper()
		if x, y := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); x != y {
			sp.t.Fatalf("%s: %s diverged:\n  oracle:   %s\n  skipping: %s", name, what, x, y)
		}
	}
	diff("Stats", sp.full.Stats(), sp.incr.Stats())
	diff("FIB stats", sp.full.FIB().Stats(), sp.incr.FIB().Stats())
	diff("FIB state", sp.full.FIB().ExportState(), sp.incr.FIB().ExportState())
	for _, p := range sp.prefixes {
		da, oka := sp.full.Decision(p)
		db, okb := sp.incr.Decision(p)
		diff("Decision "+p.String(), fmt.Sprint(oka, da), fmt.Sprint(okb, db))
		diff("AdjRIBOut "+p.String(), sp.full.AdjRIBOut(p), sp.incr.AdjRIBOut(p))
		diff("IsWarm "+p.String(), sp.full.FIB().IsWarm(p), sp.incr.FIB().IsWarm(p))
	}
	diff("tap stream", sp.taps[0], sp.taps[1])
}

// announce is HandleUpdate of a route with the given path (the first hop is
// the peer's ASN, prepended here), MED and communities.
func announce(sess SessionID, peerASN uint32, p netip.Prefix, med uint32, comms []string, path ...uint32) func(*Speaker) {
	return func(s *Speaker) {
		s.HandleUpdate(sess, Update{
			Prefix: p, ASPath: append([]uint32{peerASN}, path...), Communities: comms,
			Origin: core.OriginIGP, MED: med, LinkBandwidthGbps: 100,
		})
	}
}

func withdraw(sess SessionID, p netip.Prefix) func(*Speaker) {
	return func(s *Speaker) { s.HandleUpdate(sess, Update{Prefix: p, Withdraw: true}) }
}

var (
	domP = netip.MustParsePrefix("10.1.0.0/16")
	domQ = netip.MustParsePrefix("10.2.0.0/16")
)

// domPeers brings up four sessions: s0..s2 to three upstream devices and s3
// downstream, which hears what the speaker advertises.
func domPeers(s *Speaker) {
	s.AddPeer("s0", "up.0", 65001, 100)
	s.AddPeer("s1", "up.1", 65002, 100)
	s.AddPeer("s2", "up.2", 65003, 40)
	s.AddPeer("s3", "down.0", 65010, 100)
}

func mustSetRPA(t *testing.T, cfg *core.Config) func(*Speaker) {
	return func(s *Speaker) {
		if err := s.SetRPA(cfg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDominatedSkipMatchesOracle(t *testing.T) {
	configs := []Config{
		{ID: "dut", ASN: 65000, Multipath: true},
		{ID: "dut", ASN: 65000, Multipath: true, WCMP: WCMPDistributed},
		{ID: "dut", ASN: 65000, Multipath: false},
		{ID: "dut", ASN: 65000, Multipath: false, WCMP: WCMPDistributed},
	}
	for _, cfg := range configs {
		name := fmt.Sprintf("mp=%v-wcmp=%d", cfg.Multipath, cfg.WCMP)
		t.Run(name+"/streams", func(t *testing.T) {
			total := 0
			for seed := int64(1); seed <= 8; seed++ {
				total += domRandomStream(t, cfg, seed)
			}
			if total == 0 {
				t.Fatal("no update of the seeded streams was skipped")
			}
		})
		t.Run(name+"/targeted", func(t *testing.T) { domTargeted(t, cfg) })
	}
	t.Run("vendor-min-ecmp", func(t *testing.T) {
		sp := newSkipPair(t, Config{ID: "dut", ASN: 65000, Multipath: true, VendorMinECMP: 1}, domP)
		sp.step("peers", 0, domPeers)
		sp.step("best", 0, announce("s0", 65001, domP, 0, nil))
		sp.step("dominated", 0, announce("s1", 65002, domP, 0, nil, 64512, 64513))
		sp.step("dominated withdraw", 0, withdraw("s1", domP))
	})
	t.Run("restored", domRestored)
}

// domTargeted walks the hand-made cases, each of which either must skip or
// must not.
func domTargeted(t *testing.T, cfg Config) {
	sp := newSkipPair(t, cfg, domP, domQ)
	sp.step("peers", 0, domPeers)
	sp.step("best on s1", 0, announce("s1", 65002, domP, 0, nil))
	sp.step("dominated on s2", 1, announce("s2", 65003, domP, 0, nil, 64512))
	sp.step("dominated replaces dominated", 1, announce("s2", 65003, domP, 0, nil, 64512, 64513))
	sp.step("dominated on s0 raises the baseline", 1, announce("s0", 65001, domP, 7, nil, 64512))
	sp.step("dominated withdrawal", 1, withdraw("s0", domP))
	sp.step("not dominated: ties the best", 0, announce("s0", 65001, domP, 0, nil))
	// s0 and s1 now tie at the top; in multipath mode both are selected and
	// s0 (up.0) is advertised, in single-path mode s0 alone.
	sp.step("old route in the top tier", 0, announce("s1", 65002, domP, 0, nil, 64512, 64513))
	sp.step("not dominated: the advertised route itself", 0, announce("s0", 65001, domP, 0, nil, 64512, 64513, 64514))
	sp.step("not dominated: better than the advertised route", 0, announce("s2", 65003, domP, 0, nil))

	// The ingress-filter drop arm: a denied route clears the one it replaces.
	deny := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name: "deny-q-from-up1", PeerSignature: `^up\.1$`,
		Ingress: &core.PrefixFilter{Rules: []core.PrefixRule{{Prefix: "10.1.0.0/16"}}},
	}}}
	sp.step("q best", 0, announce("s0", 65001, domQ, 0, nil))
	sp.step("q dominated", 1, announce("s1", 65002, domQ, 0, nil, 64512))
	sp.step("deploy ingress filter", 0, mustSetRPA(t, deny))
	sp.step("q dominated under the filter", 1, announce("s2", 65003, domQ, 0, nil, 64512))
	sp.step("q denied drops a dominated route", 1, announce("s1", 65002, domQ, 0, nil, 64512, 64513))
	sp.step("q denied again, nothing to drop", 0, announce("s1", 65002, domQ, 0, nil))
	sp.step("clear filter", 0, mustSetRPA(t, &core.Config{}))

	// A Path Selection statement whose community destination matches a
	// dominated route landing at rank 0 (s0's): the statement then governs
	// and selects it.
	pickD := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "prefer-d",
		Destination: core.Destination{Community: "D"},
		PathSets: []core.PathSet{{
			Name: "d-paths", Signature: core.PathSignature{Communities: []string{"D"}},
		}},
	}}}
	sp.step("q withdraw s0", 0, withdraw("s0", domQ))
	sp.step("deploy pathsel on community D", 0, mustSetRPA(t, pickD))
	sp.step("q rank-0 dominated route carries D", 0, announce("s0", 65001, domQ, 0, []string{"D"}, 64512, 64513, 64514))
	sp.step("clear pathsel", 0, mustSetRPA(t, &core.Config{}))

	// A Route Attribute statement listing P that expires: the weights it
	// set stop applying with the clock alone.
	weights := &core.Config{RouteAttribute: []core.RouteAttributeStatement{{
		Name:        "pin-up1",
		Destination: core.Destination{Prefixes: []string{domP.String()}},
		NextHopWeights: []core.NextHopWeight{{
			Signature: core.PathSignature{NextHopRegex: `^up\.1$`}, Weight: 3,
		}},
		DefaultWeight: 1,
		ExpiresAt:     500,
	}}}
	sp.step("p reset", 0, func(s *Speaker) {
		announce("s0", 65001, domP, 0, nil)(s)
		announce("s1", 65002, domP, 0, nil)(s)
		announce("s2", 65003, domP, 0, nil, 64512)(s)
	})
	sp.step("deploy expiring weights", 0, mustSetRPA(t, weights))
	sp.clock = 1000
	sp.step("p dominated after expiry", 0, announce("s2", 65003, domP, 0, nil, 64512, 64513))
	sp.step("q is not listed", 1, announce("s1", 65002, domQ, 0, nil, 64512, 64513))
	sp.step("clear weights", 0, mustSetRPA(t, &core.Config{}))

	// A KeepFibWarm hold: the native set is one device short of the
	// statement's minimum, so the prefix is withdrawn and its FIB kept warm.
	hold := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:                     "hold-p",
		Destination:              core.Destination{Prefixes: []string{domP.String()}},
		BgpNativeMinNextHop:      core.MinNextHop{Count: 4},
		KeepFibWarmIfMnhViolated: true,
	}}}
	sp.step("deploy keep-warm", 0, mustSetRPA(t, hold))
	sp.step("p dominated under the hold", 0, announce("s2", 65003, domP, 0, nil, 64512, 64513))
	sp.step("clear keep-warm", 0, mustSetRPA(t, &core.Config{}))

	// A column emptied while the memo stays recorded: Q's only routes come
	// from up.0, so nothing is advertised on any session (split horizon
	// toward up.0 leaves only s1..s3, and an egress filter denies Q there)
	// and the withdrawals leave the memo on its last source.
	egress := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name: "no-q-out", PeerSignature: `^(up\.1|up\.2|down\.0)$`,
		Egress: &core.PrefixFilter{Rules: []core.PrefixRule{{Prefix: "10.1.0.0/16"}}},
	}}}
	sp.step("q clear s1", 1, withdraw("s1", domQ))
	sp.step("q clear s2", 0, withdraw("s2", domQ))
	sp.step("deploy egress filter", 0, mustSetRPA(t, egress))
	sp.step("q empty the column", 0, withdraw("s0", domQ))
	sp.step("q refill on s1: the memo is stale", 0, announce("s1", 65002, domQ, 0, nil, 64512, 64513))
	sp.step("q dominated against the refill", 1, announce("s2", 65003, domQ, 0, nil, 64512, 64513, 64514))
	sp.step("clear egress filter", 0, mustSetRPA(t, &core.Config{}))

	// RemovePeer renumbers the ranks every memo names; Q (whose routes s0
	// does not carry) is not recomputed, so its memo is stale.
	sp.step("p dominated before the removal", 1, announce("s2", 65003, domP, 0, nil, 64512, 64513, 64514, 64515))
	sp.step("q best on s2", 0, announce("s2", 65003, domQ, 0, nil))
	sp.step("remove s0", -1, func(s *Speaker) { s.RemovePeer("s0") })
	sp.step("q dominated after the removal", 0, announce("s1", 65002, domQ, 0, nil, 64512, 64513, 64514, 64515))
	sp.step("q dominated again", 1, announce("s1", 65002, domQ, 0, nil, 64512, 64513, 64514, 64515, 64516))
}

// domRestored: a speaker restored from a checkpoint has no memo, so its
// first dominated update runs the decision; the next one may skip.
func domRestored(t *testing.T) {
	sp := newSkipPair(t, Config{ID: "dut", ASN: 65000, Multipath: true}, domP)
	sp.step("peers", 0, domPeers)
	sp.step("best", 0, announce("s0", 65001, domP, 0, nil))
	sp.step("dominated", 1, announce("s1", 65002, domP, 0, nil, 64512))
	for i, s := range []*Speaker{sp.full, sp.incr} {
		st, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewSpeakerFromState(&st, func() int64 { return sp.clock })
		if err != nil {
			t.Fatal(err)
		}
		r.SetFullRecompute(i == 0)
		if i == 0 {
			sp.full = r
		} else {
			sp.incr = r
		}
	}
	sp.taps = [2][]string{}
	sp.attachTaps()
	sp.step("first update after restore", 0, announce("s2", 65003, domP, 0, nil, 64512))
	sp.step("second update after restore", 1, announce("s1", 65002, domP, 0, nil, 64512, 64513))
}

// domRandomStream drives one seeded stream through a skip pair and returns
// how many of its changes were skipped. The stream is mostly updates and
// withdrawals over a handful of sessions (two of them parallel sessions to
// one device) and path lengths, where dominated changes are the common case,
// mixed with the operations that invalidate the memo or shape a prefix.
func domRandomStream(t *testing.T, cfg Config, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	prefixes := []netip.Prefix{domP, domQ, incrPfxD}
	sp := newSkipPair(t, cfg, prefixes...)
	type sess struct {
		id     SessionID
		device string
		asn    uint32
	}
	sessions := []sess{
		{"a0", "up.0", 65001}, {"a1", "up.0", 65001}, {"b0", "up.1", 65002},
		{"c0", "up.2", 65003}, {"d0", "up.3", 65004}, {"z0", "down.0", 65010},
	}
	live := make([]bool, len(sessions))
	up := func(i int) {
		live[i] = true
		x := sessions[i]
		sp.step(fmt.Sprintf("seed %d: up %s", seed, x.id), 0, func(s *Speaker) { s.AddPeer(x.id, x.device, x.asn, float64(40+10*i)) })
	}
	for i := range sessions {
		up(i)
	}
	shaping := []*core.Config{
		{}, // most of the time, nothing shapes anything
		{PathSelection: []core.PathSelectionStatement{{
			Name: "prefer-d", Destination: core.Destination{Community: "D"},
			PathSets: []core.PathSet{{Name: "d", Signature: core.PathSignature{Communities: []string{"D"}}}},
		}}},
		{RouteAttribute: []core.RouteAttributeStatement{{
			Name: "w-q", Destination: core.Destination{Prefixes: []string{domQ.String()}},
			NextHopWeights: []core.NextHopWeight{{Signature: core.PathSignature{NextHopRegex: `^up\.1$`}, Weight: 5}},
			DefaultWeight:  1, ExpiresAt: 3000,
		}}},
	}
	for step := 0; step < 400; step++ {
		name := fmt.Sprintf("seed %d step %d", seed, step)
		i := r.Intn(len(sessions))
		x := sessions[i]
		switch op := r.Intn(40); {
		case op < 28: // announce
			if !live[i] {
				continue
			}
			p := prefixes[r.Intn(len(prefixes))]
			path := make([]uint32, r.Intn(4))
			for j := range path {
				path[j] = uint32(64512 + r.Intn(6))
			}
			var comms []string
			if r.Intn(8) == 0 {
				comms = []string{"D"}
			}
			sp.step(name, -1, announce(x.id, x.asn, p, uint32(r.Intn(2)), comms, path...))
		case op < 36: // withdraw
			if !live[i] {
				continue
			}
			sp.step(name, -1, withdraw(x.id, prefixes[r.Intn(len(prefixes))]))
		case op == 36: // session flap
			if live[i] {
				live[i] = false
				sp.step(name, 0, func(s *Speaker) { s.RemovePeer(x.id) })
			} else {
				up(i)
			}
		case op == 37: // RPA change, and time passing
			cfg := shaping[r.Intn(len(shaping))]
			sp.clock += int64(r.Intn(3)) * 1000
			sp.step(name, 0, mustSetRPA(t, cfg))
		case op == 38: // the clock alone
			sp.clock += 1000
			sp.step(name, 0, func(*Speaker) {})
		default: // drain or prepend
			if r.Intn(2) == 0 {
				d := r.Intn(2) == 0
				sp.step(name, 0, func(s *Speaker) { s.SetDrained(d) })
			} else {
				n := r.Intn(2)
				sp.step(name, 0, func(s *Speaker) { s.SetPeerPrepend("down.0", n) })
			}
		}
	}
	return sp.skipped()
}

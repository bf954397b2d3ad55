package bgp

import (
	"fmt"
	"net/netip"
	"testing"

	"centralium/internal/core"
)

// The speaker-level conformance harness: a full-recompute oracle speaker
// and a speaker that trusts its advertise memo walk identical operation
// sequences, and after every single operation the drained outboxes and the
// complete exported state (Adj-RIBs, decisions, FIB, stats) must render
// identically. This is a finer cut than the fabric-level
// differential suite: it localizes a divergence to the exact operation
// that caused it.

type speakerPair struct {
	t          *testing.T
	full, incr *Speaker
	clock      int64
}

func newSpeakerPair(t *testing.T, cfg Config) *speakerPair {
	pr := &speakerPair{t: t}
	now := func() int64 { return pr.clock }
	pr.full = NewSpeaker(cfg, now)
	pr.full.SetFullRecompute(true)
	pr.incr = NewSpeaker(cfg, now)
	pr.incr.SetFullRecompute(false)
	return pr
}

// step applies one operation to both speakers and compares their entire
// observable surface.
func (pr *speakerPair) step(name string, op func(s *Speaker)) {
	pr.t.Helper()
	op(pr.full)
	op(pr.incr)
	fullOut := fmt.Sprintf("%+v", pr.full.TakeOutbox())
	incrOut := fmt.Sprintf("%+v", pr.incr.TakeOutbox())
	if fullOut != incrOut {
		pr.t.Fatalf("%s: outbox diverged:\n  oracle:      %s\n  incremental: %s", name, fullOut, incrOut)
	}
	fullSt, err := pr.full.ExportState()
	if err != nil {
		pr.t.Fatalf("%s: oracle export: %v", name, err)
	}
	incrSt, err := pr.incr.ExportState()
	if err != nil {
		pr.t.Fatalf("%s: incremental export: %v", name, err)
	}
	if a, b := fmt.Sprintf("%+v", fullSt), fmt.Sprintf("%+v", incrSt); a != b {
		pr.t.Fatalf("%s: exported state diverged:\n  oracle:      %s\n  incremental: %s", name, a, b)
	}
}

var (
	incrPfxD = netip.MustParsePrefix("0.0.0.0/0")     // carries the "D" community
	incrPfxN = netip.MustParsePrefix("10.1.0.0/16")   // native selection
	incrPfxO = netip.MustParsePrefix("10.9.0.0/16")   // locally originated
	incrPfxX = netip.MustParsePrefix("172.16.0.0/12") // cold bystander
)

func incrPathSelCfg() *core.Config {
	return &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "prefer-d",
		Destination: core.Destination{Community: "D"},
		PathSets: []core.PathSet{{
			Name:       "d-paths",
			Signature:  core.PathSignature{Communities: []string{"D"}},
			MinNextHop: core.MinNextHop{Count: 2},
		}},
		BgpNativeMinNextHop:      core.MinNextHop{Count: 1},
		KeepFibWarmIfMnhViolated: true,
	}}}
}

func incrWeightCfg(expiresAt int64) *core.Config {
	return &core.Config{RouteAttribute: []core.RouteAttributeStatement{{
		Name:        "pin-up0",
		Destination: core.Destination{Community: "D"},
		NextHopWeights: []core.NextHopWeight{{
			Signature: core.PathSignature{NextHopRegex: `^up\.0$`},
			Weight:    3,
		}},
		DefaultWeight: 1,
		ExpiresAt:     expiresAt,
	}}}
}

// driveIncrementalSequence walks the pair through every operation class
// that bumps the advertisement epoch or moves a route: session up (AddPeer),
// route churn,
// origination, RPA deploy and redeploy, drain/undrain, prepends,
// statement expiry crossed by the virtual clock, withdrawal, and session
// down (RemovePeer).
func driveIncrementalSequence(pr *speakerPair) {
	pr.step("add-peers", func(s *Speaker) {
		s.AddPeer("s0", "up.0", 65001, 100)
		s.AddPeer("s1", "up.1", 65002, 100)
		s.AddPeer("s2", "up.2", 65003, 40)
		s.AddPeer("s3", "down.0", 65010, 100)
	})
	pr.step("announce-d", func(s *Speaker) {
		for i, sess := range []SessionID{"s0", "s1", "s2"} {
			s.HandleUpdate(sess, Update{
				Prefix: incrPfxD, ASPath: []uint32{uint32(65001 + i), 64512},
				Communities: []string{"D"}, Origin: core.OriginIGP, LinkBandwidthGbps: 100,
			})
		}
	})
	pr.step("announce-native", func(s *Speaker) {
		s.HandleUpdate("s0", Update{Prefix: incrPfxN, ASPath: []uint32{65001, 64512}, Origin: core.OriginIGP})
		s.HandleUpdate("s1", Update{Prefix: incrPfxN, ASPath: []uint32{65002, 64513, 64512}, Origin: core.OriginIGP})
		s.HandleUpdate("s2", Update{Prefix: incrPfxX, ASPath: []uint32{65003}, Origin: core.OriginEGP})
	})
	pr.step("originate", func(s *Speaker) {
		s.Originate(incrPfxO, []string{"RACK"}, core.OriginIGP, 0)
	})
	pr.step("deploy-pathsel", func(s *Speaker) {
		if err := s.SetRPA(incrPathSelCfg()); err != nil {
			pr.t.Fatal(err)
		}
	})
	pr.step("drain", func(s *Speaker) { s.SetDrained(true) })
	pr.step("announce-while-drained", func(s *Speaker) {
		s.HandleUpdate("s1", Update{Prefix: incrPfxN, ASPath: []uint32{65002, 64512}, Origin: core.OriginIGP})
	})
	pr.step("undrain", func(s *Speaker) { s.SetDrained(false) })
	pr.step("prepend-peer", func(s *Speaker) { s.SetPeerPrepend("down.0", 2) })
	pr.step("prepend-all", func(s *Speaker) { s.SetAllPeersPrepend(1) })
	pr.step("deploy-weights", func(s *Speaker) {
		if err := s.SetRPA(incrWeightCfg(500)); err != nil {
			pr.t.Fatal(err)
		}
	})
	pr.clock = 1000 // the weight statement expires between these steps
	pr.step("churn-after-expiry", func(s *Speaker) {
		s.HandleUpdate("s0", Update{
			Prefix: incrPfxD, ASPath: []uint32{65001, 64512}, Communities: []string{"D"},
			Origin: core.OriginIGP, MED: 5, LinkBandwidthGbps: 100,
		})
	})
	pr.step("withdraw", func(s *Speaker) {
		s.HandleUpdate("s1", Update{Prefix: incrPfxD, Withdraw: true})
	})
	pr.step("remove-peer", func(s *Speaker) { s.RemovePeer("s2") })
	pr.step("withdraw-origin", func(s *Speaker) { s.WithdrawOrigin(incrPfxO) })
	pr.step("clear-rpa", func(s *Speaker) {
		if err := s.SetRPA(&core.Config{}); err != nil {
			pr.t.Fatal(err)
		}
	})
}

func TestIncrementalOpSequenceEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		{ID: "dut", ASN: 65000, Multipath: true, WCMP: WCMPDistributed},
		{ID: "dut", ASN: 65000, Multipath: true, Advertise: AdvertiseBest},
		{ID: "dut", ASN: 65000, Multipath: false, VendorMinECMP: 2},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("mp=%v-wcmp=%d-adv=%d-minecmp=%d", cfg.Multipath, cfg.WCMP, cfg.Advertise, cfg.VendorMinECMP), func(t *testing.T) {
			pr := newSpeakerPair(t, cfg)
			driveIncrementalSequence(pr)
			if pr.full.FullRecompute() != true || pr.incr.FullRecompute() != false {
				t.Fatal("mode getters disagree with the pinned modes")
			}
		})
	}
}

// TestAdvertiseMemoEngages guards against vacuous equivalence: the sequence
// must actually hit the advertise memo and skip a dominated change, the
// oracle must do neither, and the counter whose mechanism is gone stays zero.
func TestAdvertiseMemoEngages(t *testing.T) {
	pr := newSpeakerPair(t, Config{ID: "dut", ASN: 65000, Multipath: true, WCMP: WCMPDistributed})
	driveIncrementalSequence(pr)
	st := pr.incr.IncrementalStats()
	if st.AdvertiseMemoHits == 0 {
		t.Error("speaker never hit the advertise memo")
	}
	if st.SkippedRecomputes == 0 {
		t.Error("speaker never skipped a dominated change")
	}
	if st.FIBMemoHits != 0 {
		t.Errorf("inert FIBMemoHits moved: %+v", st)
	}
	if got := pr.full.IncrementalStats(); got != (IncrementalStats{}) {
		t.Errorf("oracle speaker reports memo counters %+v, want zero", got)
	}
}

// TestIncrementalModeFlipMidSequence flips the memo-trusting speaker onto
// the oracle mid-sequence and back. The memo must be current when it is
// trusted again (the oracle keeps recording it); a stale one would surface as
// a divergence in the steps after the second flip.
func TestIncrementalModeFlipMidSequence(t *testing.T) {
	pr := newSpeakerPair(t, Config{ID: "dut", ASN: 65000, Multipath: true, WCMP: WCMPDistributed})
	pr.step("add-peers", func(s *Speaker) {
		s.AddPeer("s0", "up.0", 65001, 100)
		s.AddPeer("s1", "up.1", 65002, 100)
		s.AddPeer("s2", "up.2", 65003, 40)
	})
	pr.step("announce", func(s *Speaker) {
		for i, sess := range []SessionID{"s0", "s1", "s2"} {
			s.HandleUpdate(sess, Update{
				Prefix: incrPfxD, ASPath: []uint32{uint32(65001 + i), 64512},
				Communities: []string{"D"}, Origin: core.OriginIGP, LinkBandwidthGbps: 100,
			})
		}
		s.HandleUpdate("s0", Update{Prefix: incrPfxN, ASPath: []uint32{65001}, Origin: core.OriginIGP})
	})

	pr.incr.SetFullRecompute(true) // both on the oracle now
	// A route change under an unchanged epoch: a memo still holding the
	// pre-flip route would swallow the change back.
	pr.step("reroute-on-oracle", func(s *Speaker) {
		s.HandleUpdate("s0", Update{Prefix: incrPfxN, ASPath: []uint32{65001, 64999}, Origin: core.OriginIGP})
	})
	pr.incr.SetFullRecompute(false)
	pr.step("route-back", func(s *Speaker) {
		s.HandleUpdate("s0", Update{Prefix: incrPfxN, ASPath: []uint32{65001}, Origin: core.OriginIGP})
	})

	pr.incr.SetFullRecompute(true)
	pr.step("drain-on-oracle", func(s *Speaker) { s.SetDrained(true) })
	pr.step("undrain-on-oracle", func(s *Speaker) { s.SetDrained(false) })

	pr.incr.SetFullRecompute(false) // memo trusted again: it must be current
	pr.step("deploy-pathsel", func(s *Speaker) {
		if err := s.SetRPA(incrPathSelCfg()); err != nil {
			t.Fatal(err)
		}
	})
	pr.step("prepend-all", func(s *Speaker) { s.SetAllPeersPrepend(1) })
	pr.step("withdraw", func(s *Speaker) {
		s.HandleUpdate("s1", Update{Prefix: incrPfxD, Withdraw: true})
	})
}

// TestSortPrefixesOrdering pins sortPrefixes' contract after the move to
// slices.SortFunc: ascending address bytes first (IPv4 before IPv6 per
// netip.Addr.Compare), then ascending mask length for equal addresses.
// Every iteration surface that feeds goldens — tap streams, snapshot
// encoding, recomputeAll's walk — inherits exactly this order.
func TestSortPrefixesOrdering(t *testing.T) {
	want := []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.1.0/24"),
		netip.MustParsePrefix("192.168.0.0/16"),
		netip.MustParsePrefix("::/0"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("2001:db8::/48"),
	}
	// Feed it in scrambled order (reversed with the middle swapped out).
	got := make([]netip.Prefix, 0, len(want))
	for i := len(want) - 1; i >= 0; i-- {
		got = append(got, want[i])
	}
	got[2], got[5] = got[5], got[2]
	sortPrefixes(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v\nfull order: %v", i, got[i], want[i], got)
		}
	}
	// The pairwise invariant, independent of the example table.
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if c := a.Addr().Compare(b.Addr()); c > 0 || (c == 0 && a.Bits() >= b.Bits()) {
			t.Fatalf("ordering invariant violated between %v and %v", a, b)
		}
	}
}

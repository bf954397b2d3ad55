package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"centralium/internal/core"
)

// Tests for the engine data layout: the per-prefix Adj-RIB-In column, the
// shared advertisement content, and the allocation ceilings of the
// per-event path (DESIGN.md, "Engine data layout and the immutability
// contract").

// layoutSpeaker returns a speaker with n sessions s0..s(n-1) to peers
// p0..p(n-1) in ASNs 100, 101, ...
func layoutSpeaker(n int) *Speaker {
	s := NewSpeaker(Config{ID: "du", ASN: 300, Multipath: true}, nil)
	for i := 0; i < n; i++ {
		s.AddPeer(SessionID(fmt.Sprintf("s%d", i)), fmt.Sprintf("p%d", i), uint32(100+i), 100)
	}
	s.TakeOutbox()
	return s
}

// TestHandleUpdateAllocs pins the per-event allocation contract with no tap
// attached: an UPDATE that repeats what the session already announced (the
// decision re-runs, both memos hit, nothing is sent) allocates nothing, and
// one that changes the best path and is re-advertised on every session
// stays under a small fixed ceiling — one shared content for the whole
// fan-out, plus the FIB's new next-hop group.
func TestHandleUpdateAllocs(t *testing.T) {
	p := netip.MustParsePrefix("0.0.0.0/0")
	s := layoutSpeaker(4)
	s.SetFullRecompute(false) // the zero is the memos'; the oracle has none
	sessions := []SessionID{"s0", "s1", "s2", "s3"}
	updates := make([]Update, len(sessions))
	for i, sess := range sessions {
		updates[i] = Update{Prefix: p, ASPath: []uint32{uint32(100 + i), 60}}
		s.HandleUpdate(sess, updates[i])
	}
	s.RecycleOutbox(s.TakeOutbox())

	i := 0
	dup := testing.AllocsPerRun(200, func() {
		s.HandleUpdate(sessions[i%4], updates[i%4])
		i++
	})
	if dup != 0 {
		t.Errorf("duplicate UPDATE: %.1f allocs/run, want 0", dup)
	}

	// An accepted change: s0 alternates between a short path (becomes the
	// single best, advertised to the three other peers) and the ECMP tie.
	short := Update{Prefix: p, ASPath: []uint32{100}}
	flip := false
	accepted := testing.AllocsPerRun(200, func() {
		flip = !flip
		if flip {
			s.HandleUpdate("s0", short)
		} else {
			s.HandleUpdate("s0", updates[0])
		}
		s.RecycleOutbox(s.TakeOutbox())
	})
	t.Logf("accepted UPDATE: %.1f allocs/run", accepted)
	const ceiling = 6
	if accepted > ceiling {
		t.Errorf("accepted UPDATE: %.1f allocs/run, ceiling %d", accepted, ceiling)
	}
	if sent := s.Stats().UpdatesSent; sent < 200 {
		t.Fatalf("accepted arm sent only %d updates; it did not exercise the advertise path", sent)
	}
}

// TestRestoredAdvEntriesUpgradeLazily: a speaker restored from a checkpoint
// knows its Adj-RIB-Out only as rendered PathKeys. A trigger that changes
// nothing must re-advertise nothing — the string-only entries still
// suppress — and leaves the entries pointing at shared content, with the
// exported state unchanged.
func TestRestoredAdvEntriesUpgradeLazily(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	orig := layoutSpeaker(3)
	u := Update{Prefix: p, ASPath: []uint32{100, 60}, Communities: []string{"B", "A"}}
	orig.HandleUpdate("s0", u)
	orig.TakeOutbox()
	before, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSpeakerFromState(before, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.prefixes[p]
	if len(st.advertised) != 2 {
		t.Fatalf("restored Adj-RIB-Out has %d entries, want 2 (split horizon toward s0)", len(st.advertised))
	}
	for sess, a := range st.advertised {
		if a.content != nil || a.key == "" {
			t.Fatalf("restored entry on %s is not string-only: %+v", sess, a)
		}
	}

	s.HandleUpdate("s0", u) // same route again: a no-op trigger
	if out := s.TakeOutbox(); len(out) != 0 {
		t.Fatalf("no-op trigger on a restored speaker sent %d messages: %+v", len(out), out)
	}
	var shared *advContent
	for sess, a := range st.advertised {
		if a.content == nil {
			t.Fatalf("entry on %s was not upgraded", sess)
		}
		if shared == nil {
			shared = a.content
		} else if a.content != shared {
			t.Errorf("entry on %s has its own content; want one shared by the call", sess)
		}
	}
	after, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Only the counters of the extra UPDATE may differ.
	after.Stats, after.FIB.Writes = before.Stats, before.FIB.Writes
	if a, b := fmt.Sprintf("%+v", before), fmt.Sprintf("%+v", after); a != b {
		t.Errorf("state changed across a no-op trigger:\n before %s\n after  %s", a, b)
	}
}

// checkColumns asserts the column invariants against a model of the
// per-session Adj-RIB-In: every column is strictly session-sorted (so also
// duplicate-free) and holds exactly what a scan of the per-session state in
// session order would gather.
func checkColumns(t *testing.T, s *Speaker, model map[SessionID]map[netip.Prefix]Update, step string) {
	t.Helper()
	sessions := make([]SessionID, 0, len(model))
	for sess := range model {
		sessions = append(sessions, sess)
	}
	slices.Sort(sessions)
	for p, st := range s.prefixes {
		for i := 1; i < len(st.cands); i++ {
			if st.cands[i-1].session >= st.cands[i].session {
				t.Fatalf("%s: column of %v not strictly session-sorted at %d: %q then %q",
					step, p, i, st.cands[i-1].session, st.cands[i].session)
			}
		}
		var want []string
		for _, sess := range sessions {
			if u, ok := model[sess][p]; ok {
				want = append(want, fmt.Sprintf("%s %v %v %d", sess, u.ASPath, u.Communities, u.MED))
			}
		}
		var got []string
		for _, c := range st.cands {
			got = append(got, fmt.Sprintf("%s %v %v %d", c.session, c.attrs.ASPath, c.attrs.Communities, c.attrs.MED))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: column of %v:\n got  %v\n want %v", step, p, got, want)
		}
	}
	for sess, rib := range model {
		for p := range rib {
			if s.prefixes[p] == nil {
				t.Fatalf("%s: %v announced on %s has no column", step, p, sess)
			}
		}
	}
}

// TestColumnInvariants is the property test of the single Adj-RIB-In store:
// random announcements, withdrawals, ingress-filter deployments and session
// churn, with the column invariants checked after every operation and again
// after a checkpoint round trip.
func TestColumnInvariants(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("192.168.7.0/24"),
	}
	denied := prefixes[3]
	// An allow list admitting everything but the last prefix.
	denyCfg := &core.Config{RouteFilter: []core.RouteFilterStatement{{
		Name: "deny-one",
		Ingress: &core.PrefixFilter{Rules: []core.PrefixRule{
			{Prefix: "0.0.0.0/0"},
			{Prefix: "10.0.0.0/8", MaxMaskLength: 16},
		}},
	}}}
	if err := denyCfg.Validate(); err != nil {
		t.Fatalf("deny config: %v", err)
	}

	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewSpeaker(Config{ID: "du", ASN: 300, Multipath: true}, nil)
		model := map[SessionID]map[netip.Prefix]Update{}
		asn := map[SessionID]uint32{}
		filtering := false
		// Sessions are drawn from a fixed pool in random order, so they
		// come up out of sorted order.
		pool := []SessionID{"s07", "s01", "s12", "s03", "s10", "s05"}
		for op := 0; op < 300; op++ {
			sess := pool[r.Intn(len(pool))]
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := r.Intn(10); {
			case model[sess] == nil: // bring the session up
				asn[sess] = uint32(100 + r.Intn(50))
				s.AddPeer(sess, "dev-"+string(sess), asn[sess], 100)
				model[sess] = map[netip.Prefix]Update{}
			case k == 0: // tear it down
				s.RemovePeer(sess)
				delete(model, sess)
			case k == 1: // flip the ingress filter
				filtering = !filtering
				cfg := &core.Config{}
				if filtering {
					cfg = denyCfg
				}
				if err := s.SetRPA(cfg); err != nil {
					t.Fatalf("%s: SetRPA: %v", step, err)
				}
			case k <= 3: // withdraw
				p := prefixes[r.Intn(len(prefixes))]
				s.HandleUpdate(sess, Update{Prefix: p, Withdraw: true})
				delete(model[sess], p)
			default: // announce
				p := prefixes[r.Intn(len(prefixes))]
				u := Update{Prefix: p, ASPath: []uint32{asn[sess], uint32(60 + r.Intn(3))}, MED: uint32(r.Intn(2))}
				if r.Intn(2) == 0 {
					u.Communities = []string{"C"}
				}
				s.HandleUpdate(sess, u)
				if filtering && p == denied {
					delete(model[sess], p) // a denied route clears the entry
				} else {
					model[sess][p] = u
				}
			}
			s.TakeOutbox()
			checkColumns(t, s, model, step)
		}

		st, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := NewSpeakerFromState(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkColumns(t, restored, model, fmt.Sprintf("seed %d restored", seed))
		again, err := restored.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", st), fmt.Sprintf("%+v", again); a != b {
			t.Fatalf("seed %d: state changed across restore:\n%s\n%s", seed, a, b)
		}
	}
}

// TestRestoreSortsUnsortedAdjIn: well-formed checkpoints list Adj-RIB-In
// sessions in sorted order, but restore does not rely on it — a hand-built
// state in any order (and with a session listed twice, last write winning)
// still yields sorted, duplicate-free columns.
func TestRestoreSortsUnsortedAdjIn(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	q := netip.MustParsePrefix("10.1.0.0/16")
	route := func(p netip.Prefix, asn uint32, med uint32) core.RouteAttrs {
		return core.RouteAttrs{Prefix: p, ASPath: []uint32{asn, 60}, LocalPref: 100, MED: med}
	}
	st := SpeakerState{
		Cfg: Config{ID: "du", ASN: 300, Multipath: true},
		Peers: []PeerState{
			{Session: "s2", Device: "p2", ASN: 102}, {Session: "s0", Device: "p0", ASN: 100}, {Session: "s1", Device: "p1", ASN: 101},
		},
		AdjIn: []AdjRIBInState{
			{Session: "s2", Routes: []core.RouteAttrs{route(p, 102, 0), route(q, 102, 0)}},
			{Session: "s0", Routes: []core.RouteAttrs{route(q, 100, 0), route(p, 100, 0)}},
			{Session: "s1", Routes: []core.RouteAttrs{route(p, 101, 0)}},
			{Session: "s0", Routes: []core.RouteAttrs{route(p, 100, 7)}},
		},
	}
	s, err := NewSpeakerFromState(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range s.Candidates(p) {
		got = append(got, fmt.Sprintf("%d/%d", c.ASPath[0], c.MED))
	}
	if want := []string{"100/7", "101/0", "102/0"}; !slices.Equal(got, want) {
		t.Errorf("column of %v = %v, want %v (session order, last write wins)", p, got, want)
	}
	if n := len(s.Candidates(q)); n != 2 {
		t.Errorf("column of %v has %d routes, want 2", q, n)
	}
	if _, err := NewSpeakerFromState(SpeakerState{
		Cfg:   st.Cfg,
		AdjIn: []AdjRIBInState{{Session: "ghost", Routes: []core.RouteAttrs{route(p, 1, 0)}}},
	}, nil); err == nil {
		t.Error("Adj-RIB-In for an unknown session restored without error")
	}
}

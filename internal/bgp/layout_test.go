package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
// decision re-runs, the FIB sees a no-op rewrite, the advertise memo hits,
// nothing is sent) allocates nothing, and
// one that changes the best path and is re-advertised on every session
// stays under a small fixed ceiling — one shared content for the whole
// fan-out, plus the FIB's new next-hop group. The same numbers hold on a
// speaker restored from a checkpoint once its first writes have copied the
// columns it shares with the checkpoint.
func TestHandleUpdateAllocs(t *testing.T) {
	p := netip.MustParsePrefix("0.0.0.0/0")
	fresh := layoutSpeaker(4)
	fresh.SetFullRecompute(false) // the zero is the memo's; the oracle walks the sessions
	sessions := []SessionID{"s0", "s1", "s2", "s3"}
	updates := make([]Update, len(sessions))
	for i, sess := range sessions {
		updates[i] = Update{Prefix: p, ASPath: []uint32{uint32(100 + i), 60}}
		fresh.HandleUpdate(sess, updates[i])
	}
	fresh.RecycleOutbox(fresh.TakeOutbox())
	st, err := fresh.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSpeakerFromState(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetFullRecompute(false)

	for name, s := range map[string]*Speaker{"fresh": fresh, "restored": restored} {
		i := 0
		dup := testing.AllocsPerRun(200, func() {
			s.HandleUpdate(sessions[i%4], updates[i%4])
			i++
		})
		if dup != 0 {
			t.Errorf("%s: duplicate UPDATE: %.1f allocs/run, want 0", name, dup)
		}

		// An accepted change: s0 alternates between a short path (becomes the
		// single best, advertised to the three other peers) and the ECMP tie.
		short := Update{Prefix: p, ASPath: []uint32{100}}
		flip := false
		sentBefore := s.Stats().UpdatesSent
		accepted := testing.AllocsPerRun(200, func() {
			flip = !flip
			if flip {
				s.HandleUpdate("s0", short)
			} else {
				s.HandleUpdate("s0", updates[0])
			}
			s.RecycleOutbox(s.TakeOutbox())
		})
		t.Logf("%s: accepted UPDATE: %.1f allocs/run", name, accepted)
		const ceiling = 6
		if accepted > ceiling {
			t.Errorf("%s: accepted UPDATE: %.1f allocs/run, ceiling %d", name, accepted, ceiling)
		}
		if sent := s.Stats().UpdatesSent - sentBefore; sent < 200 {
			t.Fatalf("%s: accepted arm sent only %d updates; it did not exercise the advertise path", name, sent)
		}
	}
}

// TestPrefixStateSize pins the per-prefix, per-speaker (and so per-fork)
// bookkeeping: two columns, the last decision and the advertise memo. It was
// 616 bytes while it also carried a dependency profile and two route copies.
func TestPrefixStateSize(t *testing.T) {
	if got := unsafe.Sizeof(prefixState{}); got > 256 {
		t.Errorf("unsafe.Sizeof(prefixState{}) = %d, want <= 256", got)
	}
}

// TestRestoredColumnsCopyOnFirstWrite: a restored speaker keeps its
// checkpoint and builds nothing out of it until it is first used; then it
// reads its columns out of the checkpoint's memory until it writes one, and
// the write copies that column only — the other prefixes keep sharing, and
// the checkpoint reads as it did.
func TestRestoredColumnsCopyOnFirstWrite(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	q := netip.MustParsePrefix("10.1.0.0/16")
	orig := layoutSpeaker(3)
	for _, pfx := range []netip.Prefix{p, q} {
		orig.HandleUpdate("s0", Update{Prefix: pfx, ASPath: []uint32{100, 60}})
		orig.HandleUpdate("s1", Update{Prefix: pfx, ASPath: []uint32{101, 60}})
	}
	orig.TakeOutbox()
	st, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	pristine := fmt.Sprintf("%+v", st)
	s, err := NewSpeakerFromState(&st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.pending != &st || s.prefixes != nil || s.peers != nil || s.rpa != nil {
		t.Fatal("restore built the speaker's maps instead of keeping its checkpoint")
	}
	if s.Program() != noRPA || s.Dirty() || len(s.FIB().Lookup(p)) != 2 || s.pending == nil {
		t.Fatal("reading the program, the dirty bit or the FIB built the speaker, or answered wrong")
	}
	if got := s.Peers(); s.pending != nil || len(got) != 3 {
		t.Fatalf("Peers() = %v without building the speaker from its checkpoint", got)
	}
	column := func(pfx netip.Prefix) *PrefixBookState {
		for i := range st.Prefixes {
			if st.Prefixes[i].Prefix == pfx {
				return &st.Prefixes[i]
			}
		}
		t.Fatalf("no state for %v", pfx)
		return nil
	}
	for _, pfx := range []netip.Prefix{p, q} {
		b, pb := s.prefixes[pfx], column(pfx)
		if !b.candsShared || !b.advShared || &b.cands[0] != &pb.Cands[0] || &b.advertised[0] != &pb.Advertised[0] {
			t.Fatalf("%v: columns not adopted by reference", pfx)
		}
		if cap(b.cands) != len(b.cands) || cap(b.advertised) != len(b.advertised) {
			t.Fatalf("%v: an adopted column has spare capacity an append could write into", pfx)
		}
	}

	// A withdrawal on s1 edits p's Adj-RIB-In; the decision then re-advertises
	// toward s1 (no longer the source device), editing p's Adj-RIB-Out.
	s.HandleUpdate("s1", Update{Prefix: p, Withdraw: true})
	if b := s.prefixes[p]; b.candsShared || b.advShared || len(b.cands) != 1 {
		t.Errorf("%v: written columns still marked shared (cands %v adv %v), %d candidates", p, b.candsShared, b.advShared, len(b.cands))
	}
	if b, pb := s.prefixes[q], column(q); !b.candsShared || !b.advShared || &b.cands[0] != &pb.Cands[0] || &b.advertised[0] != &pb.Advertised[0] {
		t.Errorf("%v: a write to %v copied this prefix's columns too", q, p)
	}
	if again := fmt.Sprintf("%+v", st); again != pristine {
		t.Errorf("the write reached the checkpoint:\n before %s\n after  %s", pristine, again)
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

	s, err := NewSpeakerFromState(&before, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.load()
	st := s.prefixes[p]
	if len(st.advertised) != 2 {
		t.Fatalf("restored Adj-RIB-Out has %d entries, want 2 (split horizon toward s0)", len(st.advertised))
	}
	for _, a := range st.advertised {
		if a.content != nil || a.PathKey == "" {
			t.Fatalf("restored entry on %s is not string-only: %+v", a.Session, a)
		}
	}

	s.HandleUpdate("s0", u) // same route again: a no-op trigger
	if out := s.TakeOutbox(); len(out) != 0 {
		t.Fatalf("no-op trigger on a restored speaker sent %d messages: %+v", len(out), out)
	}
	var shared *advContent
	for _, a := range st.advertised {
		if a.content == nil {
			t.Fatalf("entry on %s was not upgraded", a.Session)
		}
		if shared == nil {
			shared = a.content
		} else if a.content != shared {
			t.Errorf("entry on %s has its own content; want one shared by the call", a.Session)
		}
	}
	// The upgrade wrote a copy: the checkpoint the speaker was restored from
	// still holds string-only entries.
	for _, pb := range before.Prefixes {
		for _, a := range pb.Advertised {
			if a.content != nil {
				t.Fatalf("the upgrade on %s wrote through to the checkpoint", a.Session)
			}
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
	s.load() // the columns are what a restored speaker builds on first use
	sessions := make([]SessionID, 0, len(model))
	for sess := range model {
		sessions = append(sessions, sess)
	}
	slices.Sort(sessions)
	for p, st := range s.prefixes {
		for i := 1; i < len(st.cands); i++ {
			if st.cands[i-1].Session >= st.cands[i].Session {
				t.Fatalf("%s: column of %v not strictly session-sorted at %d: %q then %q",
					step, p, i, st.cands[i-1].Session, st.cands[i].Session)
			}
		}
		for i := 1; i < len(st.advertised); i++ {
			if st.advertised[i-1].Session >= st.advertised[i].Session {
				t.Fatalf("%s: Adj-RIB-Out column of %v not strictly session-sorted at %d", step, p, i)
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
			got = append(got, fmt.Sprintf("%s %v %v %d", c.Session, c.Attrs.ASPath, c.Attrs.Communities, c.Attrs.MED))
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
		if !inPeerOrder(&st) { // ExportState marks it so without looking
			t.Fatalf("seed %d: ExportState wrote a record out of peer order", seed)
		}
		restored, err := NewSpeakerFromState(&st, nil)
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

// TestRestoreSortsUnsortedAdjIn: well-formed checkpoints hold session-sorted
// columns, which restore adopts in place, but it does not rely on it — a
// hand-built column in any order (and with a session listed twice, last
// write winning) is rebuilt sorted and duplicate-free in the speaker's own
// memory, and a column naming an unknown session is rejected.
func TestRestoreSortsUnsortedAdjIn(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	q := netip.MustParsePrefix("10.1.0.0/16")
	cand := func(sess SessionID, p netip.Prefix, asn uint32, med uint32) Candidate {
		return Candidate{Session: sess, Attrs: core.RouteAttrs{Prefix: p, ASPath: []uint32{asn, 60}, LocalPref: 100, MED: med}}
	}
	st := SpeakerState{
		Cfg: Config{ID: "du", ASN: 300, Multipath: true},
		Peers: []PeerState{
			{Session: "s2", Device: "p2", ASN: 102}, {Session: "s0", Device: "p0", ASN: 100}, {Session: "s1", Device: "p1", ASN: 101},
		},
		Prefixes: []PrefixBookState{
			{Prefix: p,
				Cands:      []Candidate{cand("s2", p, 102, 0), cand("s0", p, 100, 0), cand("s1", p, 101, 0), cand("s0", p, 100, 7)},
				Advertised: []AdvState{{Session: "s1", PathKey: "k1"}, {Session: "s0", PathKey: "k0"}, {Session: "s1", PathKey: "k1b"}}},
			{Prefix: q, Cands: []Candidate{cand("s0", q, 100, 0), cand("s2", q, 102, 0)}},
		},
	}
	pristine := fmt.Sprintf("%+v", st)
	s, err := NewSpeakerFromState(&st, nil)
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
	out := s.AdjRIBOut(p)
	if len(out) != 2 || out["s0"].PathKey != "k0" || out["s1"].PathKey != "k1b" {
		t.Errorf("Adj-RIB-Out of %v = %v, want s0:k0 s1:k1b (last write wins)", p, out)
	}
	if bp := s.prefixes[p]; bp.candsShared || bp.advShared {
		t.Error("a malformed column was adopted by reference")
	}
	if bq := s.prefixes[q]; !bq.candsShared || &bq.cands[0] != &st.Prefixes[1].Cands[0] || cap(bq.cands) != len(bq.cands) {
		t.Error("a well-formed column was not adopted in place with its capacity clipped")
	}
	if again := fmt.Sprintf("%+v", st); again != pristine {
		t.Error("restore wrote to the state it was given")
	}

	for name, pb := range map[string]PrefixBookState{
		"Adj-RIB-In":  {Prefix: p, Cands: []Candidate{cand("ghost", p, 1, 0)}},
		"Adj-RIB-Out": {Prefix: p, Advertised: []AdvState{{Session: "ghost", PathKey: "k"}}},
	} {
		if _, err := NewSpeakerFromState(&SpeakerState{Cfg: st.Cfg, Peers: st.Peers, Prefixes: []PrefixBookState{pb}}, nil); err == nil {
			t.Errorf("%s for an unknown session restored without error", name)
		}
	}
}

// TestCheckRecordsPeerOrder: ExportState's records carry the verdict that
// their columns are in peer order, and Check records it for a record built
// any other way, so a restore of either walks no column — it costs the
// speaker and its FIB table and nothing else. A record built by hand is
// checked at restore. Check refuses what NewSpeakerFromState refuses: the
// same prefix records under a peer list that lacks a session they name.
func TestCheckRecordsPeerOrder(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	orig := layoutSpeaker(3)
	orig.HandleUpdate("s0", Update{Prefix: p, ASPath: []uint32{100, 60}})
	orig.HandleUpdate("s1", Update{Prefix: p, ASPath: []uint32{101, 60}})
	orig.TakeOutbox()
	st, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !st.ordered {
		t.Fatal("ExportState's record is not marked in peer order")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if s, err := NewSpeakerFromState(&st, nil); err != nil || s.pending == nil {
			t.Fatalf("restore: pending %v, err %v", s != nil && s.pending != nil, err)
		}
	})
	if allocs > 2 {
		t.Errorf("restoring a checked record allocates %.0f times, want the speaker and its FIB table", allocs)
	}

	byHand := SpeakerState{Cfg: st.Cfg, Peers: st.Peers, Prefixes: st.Prefixes, FIB: st.FIB}
	if s, err := NewSpeakerFromState(&byHand, nil); err != nil || s.pending == nil {
		t.Fatalf("a record in peer order built by hand: pending %v, err %v", s != nil && s.pending != nil, err)
	}
	if err := byHand.Check(); err != nil || !byHand.ordered {
		t.Fatalf("Check of a record in peer order: err %v, ordered %v", err, byHand.ordered)
	}

	reversed := SpeakerState{Cfg: st.Cfg, Peers: slices.Clone(st.Peers), Prefixes: st.Prefixes}
	slices.Reverse(reversed.Peers)
	if s, err := NewSpeakerFromState(&reversed, nil); err != nil || s.pending != nil {
		t.Fatalf("a record with its peers reversed: pending %v, err %v, want built at once", s != nil && s.pending != nil, err)
	}
	if err := reversed.Check(); err != nil || reversed.ordered {
		t.Fatalf("Check of a record with its peers reversed: err %v, ordered %v", err, reversed.ordered)
	}

	other := SpeakerState{Cfg: st.Cfg, Peers: st.Peers[1:], Prefixes: st.Prefixes} // s0 carries routes in both columns
	if _, err := NewSpeakerFromState(&other, nil); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("the prefix records under a peer list without s0: %v, want an unknown session", err)
	}
	if err := other.Check(); err == nil || !strings.Contains(err.Error(), "unknown session") || other.ordered {
		t.Fatalf("Check of the prefix records under a peer list without s0: %v, ordered %v", err, other.ordered)
	}
}

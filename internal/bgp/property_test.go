package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"centralium/internal/core"
)

// Property-based tests for the decision-process invariants the incremental
// engine leans on. All generators are explicitly seeded (math/rand with a
// fixed source — the determinism lint only polices non-test code, and a
// printed seed makes every failure replayable).

const propTrials = 300

// genCandidates builds 1..8 candidate routes for one prefix with randomized
// preference attributes, drawn so ties are common (the interesting regime
// for multipath and tie-break rules), and the peers whose ranks they carry.
// A route's next hop is its session's device, and sessions share devices.
func genCandidates(r *rand.Rand) ([]Candidate, []peer) {
	n := 1 + r.Intn(8)
	cands := make([]Candidate, 0, n)
	peers := make([]peer, 0, n)
	for i := 0; i < n; i++ {
		device := fmt.Sprintf("dev.%d", r.Intn(4)) // collisions on purpose
		peers = append(peers, peer{session: SessionID(fmt.Sprintf("s%d", i)), device: device, dev: devOrdinal(peers, device)})
		pathLen := 1 + r.Intn(3)
		path := make([]uint32, pathLen)
		for j := range path {
			path[j] = uint32(64512 + r.Intn(4))
		}
		var comms []string
		if r.Intn(2) == 0 {
			comms = []string{"D"}
		}
		cands = append(cands, Candidate{
			Peer: int32(i),
			Attrs: Route{
				ASPath:      path,
				Communities: comms,
				MED:         uint32(r.Intn(3)),
				Origin:      core.Origin(r.Intn(3)),
			},
		})
	}
	return cands, peers
}

// sessionSet projects a selection to the set of chosen sessions, the
// order- and index-independent identity of a selection.
func sessionSet(cands []Candidate, idx []int) map[int32]bool {
	out := make(map[int32]bool, len(idx))
	for _, i := range idx {
		out[cands[i].Peer] = true
	}
	return out
}

func equalSessionSets(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestPropertyNativeSelectPermutationInvariance: native selection is a
// function of the candidate *set*, not the slice order — for any
// permutation, the same sessions are selected (multipath) and the same
// single session wins (single-path). The speaker depends on
// this: its cached session order fixes one arrival-independent iteration
// order and this property says no other order could have chosen
// differently.
func TestPropertyNativeSelectPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < propTrials; trial++ {
		cands, peers := genCandidates(r)
		perm := make([]Candidate, len(cands))
		for i, j := range r.Perm(len(cands)) {
			perm[i] = cands[j]
		}
		for _, multipath := range []bool{true, false} {
			a := sessionSet(cands, nativeSelect(nil, cands, peers, multipath))
			b := sessionSet(perm, nativeSelect(nil, perm, peers, multipath))
			if !equalSessionSets(a, b) {
				t.Fatalf("trial %d multipath=%v: selection depends on candidate order:\n  %v\n  vs %v\n  cands: %+v",
					trial, multipath, a, b, cands)
			}
		}
	}
}

// TestPropertySelectPathsPermutationInvariance: RPA path selection picks
// the same session set for any ordering of the candidate slice (the
// statement cache must not introduce order dependence either).
func TestPropertySelectPathsPermutationInvariance(t *testing.T) {
	cfg := &core.Config{PathSelection: []core.PathSelectionStatement{{
		Name:        "prop",
		Destination: core.Destination{Prefixes: []string{"0.0.0.0/0"}},
		PathSets: []core.PathSet{
			{Signature: core.PathSignature{Communities: []string{"D"}}, MinNextHop: core.MinNextHop{Count: 2}},
			{Signature: core.PathSignature{NextHopRegex: `^dev\.[01]$`}},
		},
	}}}
	ev, err := core.NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(402))
	for trial := 0; trial < propTrials; trial++ {
		cands, peers := genCandidates(r)
		s := &Speaker{cfg: Config{LocalPref: 100}, peers: peers}
		attrs := make([]core.RouteAttrs, len(cands))
		for i := range cands {
			attrs[i] = s.routeAttrs(netip.MustParsePrefix("0.0.0.0/0"), &cands[i])
		}
		dec := ev.SelectPaths(attrs, 4)
		order := r.Perm(len(cands))
		permAttrs := make([]core.RouteAttrs, len(cands))
		permCands := make([]Candidate, len(cands))
		for i, j := range order {
			permAttrs[i] = attrs[j]
			permCands[i] = cands[j]
		}
		permDec := ev.SelectPaths(permAttrs, 4)
		if dec.UsedNative != permDec.UsedNative || dec.MatchedSet != permDec.MatchedSet {
			t.Fatalf("trial %d: outcome depends on order: %+v vs %+v", trial, dec, permDec)
		}
		if !dec.UsedNative {
			a := sessionSet(cands, dec.Selected)
			b := sessionSet(permCands, permDec.Selected)
			if !equalSessionSets(a, b) {
				t.Fatalf("trial %d: selected sets differ: %v vs %v", trial, a, b)
			}
		}
	}
}

// TestPropertyLeastFavorableRule: the Section 5.3.1 advertisement rule
// always picks a selected route whose AS path is the longest among the
// selection — advertising anything shorter is what builds the Figure 9
// loop. Also pins antisymmetry with bestOf: the least favorable route is
// never strictly better than the best one.
func TestPropertyLeastFavorableRule(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	for trial := 0; trial < propTrials; trial++ {
		cands, peers := genCandidates(r)
		selected := nativeSelect(nil, cands, peers, true)
		if len(selected) == 0 {
			continue
		}
		worst := leastFavorable(cands, peers, selected)
		best := bestOf(cands, peers, selected)
		maxLen := 0
		inSelection := false
		for _, i := range selected {
			if l := len(cands[i].Attrs.ASPath); l > maxLen {
				maxLen = l
			}
			if i == worst {
				inSelection = true
			}
		}
		if !inSelection {
			t.Fatalf("trial %d: leastFavorable returned %d, not in selection %v", trial, worst, selected)
		}
		if got := len(cands[worst].Attrs.ASPath); got != maxLen {
			t.Fatalf("trial %d: least-favorable path len %d, selection max %d (cands %+v)", trial, got, maxLen, cands)
		}
		if better(&cands[worst].Attrs, &cands[best].Attrs) {
			t.Fatalf("trial %d: least favorable strictly better than best", trial)
		}
	}
}

// TestPropertyMinNextHopKeepWarm drives a live speaker through randomized
// BgpNativeMinNextHop configurations and candidate sets, checking the
// full MinNextHop/KeepFibWarmIfMnhViolated decision table: below the
// distinct-next-hop threshold the route is never advertised and the FIB
// retains entries exactly when KeepFibWarm is set; at or above it, the
// route advertises and forwards normally.
func TestPropertyMinNextHopKeepWarm(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/8")
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < propTrials; trial++ {
		required := 1 + r.Intn(4)
		keepWarm := r.Intn(2) == 0
		nRoutes := 1 + r.Intn(4)
		distinct := 1 + r.Intn(nRoutes) // distinct next-hop devices among them

		s := NewSpeaker(Config{ID: "dut", ASN: 65000, Multipath: true}, nil)
		if err := s.SetRPA(&core.Config{PathSelection: []core.PathSelectionStatement{{
			Name:                     "mnh",
			Destination:              core.Destination{Prefixes: []string{"10.0.0.0/8"}},
			PathSets:                 []core.PathSet{{Signature: core.PathSignature{Communities: []string{"NEVER"}}}},
			BgpNativeMinNextHop:      core.MinNextHop{Count: required},
			ExpectedNextHops:         distinct, // pin the baseline; percent is zero so only Count binds
			KeepFibWarmIfMnhViolated: keepWarm,
		}}}); err != nil {
			t.Fatal(err)
		}
		// nRoutes sessions spread over `distinct` devices; equal attributes
		// so every route is natively selected.
		for i := 0; i < nRoutes; i++ {
			dev := fmt.Sprintf("up.%d", i%distinct)
			s.AddPeer(SessionID(fmt.Sprintf("s%d", i)), dev, uint32(65001+i%distinct), 100)
		}
		s.AddPeer("down", "down.0", 65100, 100)
		s.TakeOutbox()
		for i := 0; i < nRoutes; i++ {
			s.HandleUpdate(SessionID(fmt.Sprintf("s%d", i)), Update{
				Prefix: p, ASPath: []uint32{uint32(65001 + i%distinct)}, Origin: core.OriginIGP,
			})
		}
		s.TakeOutbox()

		adv := len(s.AdjRIBOut(p)) > 0
		fibInstalled := s.FIB().Lookup(p) != nil
		violated := distinct < required
		label := fmt.Sprintf("trial %d: required=%d distinct=%d routes=%d keepWarm=%v", trial, required, distinct, nRoutes, keepWarm)
		if violated {
			if adv {
				t.Fatalf("%s: advertised despite min-next-hop violation", label)
			}
			if fibInstalled != keepWarm {
				t.Fatalf("%s: FIB installed=%v, want %v", label, fibInstalled, keepWarm)
			}
			info, ok := s.Decision(p)
			if !ok || !info.MnhWithdrawn {
				t.Fatalf("%s: decision not flagged MnhWithdrawn (%+v)", label, info)
			}
		} else {
			if !adv {
				t.Fatalf("%s: not advertised despite meeting the threshold", label)
			}
			if !fibInstalled {
				t.Fatalf("%s: no FIB entry despite meeting the threshold", label)
			}
		}
	}
}

// TestPropertyRandomizedOpEquivalence is the randomized companion of the
// scripted op-sequence test: seeded random operation streams over the
// oracle/incremental speaker pair. Each seed is an independent subtest so
// a failure names the seed that reproduces it.
func TestPropertyRandomizedOpEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			pr := newSpeakerPair(t, Config{ID: "dut", ASN: 65000, Multipath: true, WCMP: WCMPDistributed})
			applyRandomOps(t, pr, r, 120)
		})
	}
}

// applyRandomOps drives `steps` random operations through the pair,
// keeping a model of live sessions so every operation is well-formed.
func applyRandomOps(t *testing.T, pr *speakerPair, r *rand.Rand, steps int) {
	t.Helper()
	prefixes := []netip.Prefix{incrPfxD, incrPfxN, incrPfxO, incrPfxX}
	devices := []string{"up.0", "up.1", "up.2", "down.0"}
	live := map[int]bool{}
	for i := 0; i < steps; i++ {
		op := r.Intn(10)
		name := fmt.Sprintf("step %d op %d", i, op)
		switch op {
		case 0, 1: // session up
			si := r.Intn(len(devices))
			if !live[si] {
				live[si] = true
				pr.step(name, func(s *Speaker) {
					s.AddPeer(SessionID(fmt.Sprintf("s%d", si)), devices[si], uint32(65001+si), float64(40+20*si))
				})
			}
		case 2: // session down
			si := r.Intn(len(devices))
			if live[si] {
				live[si] = false
				pr.step(name, func(s *Speaker) { s.RemovePeer(SessionID(fmt.Sprintf("s%d", si))) })
			}
		case 3, 4, 5: // announce
			si := r.Intn(len(devices))
			if live[si] {
				u := Update{
					Prefix: prefixes[r.Intn(len(prefixes))],
					ASPath: make([]uint32, 1+r.Intn(3)),
					Origin: core.Origin(r.Intn(3)),
					MED:    uint32(r.Intn(2)),
				}
				for j := range u.ASPath {
					u.ASPath[j] = uint32(64512 + r.Intn(4))
				}
				if r.Intn(2) == 0 {
					u.Communities = []string{"D"}
				}
				if r.Intn(2) == 0 {
					u.LinkBandwidthGbps = float64(10 * (1 + r.Intn(10)))
				}
				pr.step(name, func(s *Speaker) { s.HandleUpdate(SessionID(fmt.Sprintf("s%d", si)), u) })
			}
		case 6: // withdraw
			si := r.Intn(len(devices))
			if live[si] {
				u := Update{Prefix: prefixes[r.Intn(len(prefixes))], Withdraw: true}
				pr.step(name, func(s *Speaker) { s.HandleUpdate(SessionID(fmt.Sprintf("s%d", si)), u) })
			}
		case 7: // drain toggle
			drained := r.Intn(2) == 0
			pr.step(name, func(s *Speaker) { s.SetDrained(drained) })
		case 8: // prepend
			if r.Intn(2) == 0 {
				n := r.Intn(3)
				pr.step(name, func(s *Speaker) { s.SetAllPeersPrepend(n) })
			} else {
				dev := devices[r.Intn(len(devices))]
				n := r.Intn(3)
				pr.step(name, func(s *Speaker) { s.SetPeerPrepend(dev, n) })
			}
		case 9: // RPA deploy / clock advance / clear
			switch r.Intn(4) {
			case 0:
				pr.step(name, func(s *Speaker) {
					if err := s.SetRPA(incrPathSelCfg()); err != nil {
						t.Fatal(err)
					}
				})
			case 1:
				exp := pr.clock + int64(1+r.Intn(3))*250
				pr.step(name, func(s *Speaker) {
					if err := s.SetRPA(incrWeightCfg(exp)); err != nil {
						t.Fatal(err)
					}
				})
			case 2:
				pr.clock += int64(1+r.Intn(4)) * 200
				pr.step(name, func(s *Speaker) {}) // observe the new clock
			case 3:
				pr.step(name, func(s *Speaker) {
					if err := s.SetRPA(&core.Config{}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

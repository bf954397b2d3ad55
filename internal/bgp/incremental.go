package bgp

// The advertise memo and the oracle.
//
// There is one decision driver: recomputeOne runs the Figure 6 pipeline for
// a prefix, and every bulk trigger (session up, drain/undrain, prepend
// change, RPA deploy) runs it for every known prefix through recomputeAll.
// Most of those runs change nothing, and three places recognise that
// cheaply: fib.Table.Install compares the incoming hop set against the
// prefix's live group before it renders a key; advertise consults a
// per-prefix memo of its last completed loop (see prefixState) before it
// walks the sessions; and HandleUpdate does not run the pipeline at all for
// a dominated change (see dominated), one whose routes are strictly worse
// than the route the memo says is advertised, and leaves the run's residue
// instead (see skipDecision).
//
// "Full recompute" — Speaker.SetFullRecompute, fabric.Options.FullRecompute,
// CENTRALIUM_FULL_RECOMPUTE — stops the speaker trusting the advertise memo,
// and nothing else: the mode is read in one place, memoCurrent, which both
// the memo and the dominated-change skip ask. That speaker is the oracle the
// differential suites (here, internal/fabric, internal/snapshot) and the
// benchmark compare against, byte for byte, on everything observable. The
// memo is derived state and never serialized: snapshots are identical across
// modes, and a restored speaker starts with it empty.

import (
	"net/netip"
	"os"
	"slices"

	"centralium/internal/fib"
)

// defaultFullRecompute is the mode of every speaker constructed in this
// process, pinned by the CENTRALIUM_FULL_RECOMPUTE environment variable so a
// whole test run can be put on the oracle without code changes. The read
// happens in init, outside Go's test cache key: pass -count=1 when pinning.
var defaultFullRecompute bool

func init() {
	switch os.Getenv("CENTRALIUM_FULL_RECOMPUTE") {
	case "1", "true":
		defaultFullRecompute = true
	}
}

// IncrementalStats counts work the engine avoided. The counters are
// diagnostic only — they are not part of SpeakerState, so snapshots stay
// byte-identical across modes.
type IncrementalStats struct {
	// AdvertiseMemoHits counts advertise calls satisfied by the
	// advertisement memo (provably suppressed on every session), and the
	// dominated changes whose skipped run would have hit it.
	AdvertiseMemoHits int

	// SkippedRecomputes counts dominated changes: received updates,
	// withdrawals and ingress-filter drops that left the decision's residue
	// instead of running it (see dominated).
	SkippedRecomputes int

	// FIBMemoHits is always zero: the mechanism it counted is gone. It stays
	// declared only because bench/w_library.go (frozen outside a benchmark
	// change) reads it; it goes with the bgp.fib_memo_hits_per_op metric it
	// feeds.
	FIBMemoHits int
}

// IncrementalStats returns the engine's work-avoidance counters.
func (s *Speaker) IncrementalStats() IncrementalStats { return s.incr }

// FullRecompute reports whether the speaker is the oracle: advertise memo off.
func (s *Speaker) FullRecompute() bool { return s.fullRecompute }

// SetFullRecompute turns the advertise memo off (true, the oracle) or on.
// The switch is safe at any quiescent point: both modes keep the memo's
// record current, the oracle just never trusts it.
func (s *Speaker) SetFullRecompute(on bool) { s.fullRecompute = on }

// memoCurrent reports whether st's advertisement memo records the last
// advertise loop under the present epoch and may be trusted: never on the
// oracle, whose mode is read here and nowhere else.
func (s *Speaker) memoCurrent(st *prefixState) bool {
	return !s.fullRecompute && st.advOK && st.advEpoch == s.advEpoch
}

// dominated reports whether writing nu (nil for a removal) over rank k's
// route for p — at column position i, where found says whether k has a route
// — provably leaves p's decision as it is. It reads the column before the
// write and adds no state of its own: all of these must hold.
//
//   - The memo is current, so the route it records is the one the last run
//     advertised, and that run was not on the oracle. Every peer, prepend,
//     drain or RPA change bumps the epoch; a restored speaker has no memo.
//   - That route came from a peer (advFrom >= 0: p is not originated, whose
//     route advertises from -1) other than k, and advFrom still holds a
//     route. Nothing but a decision run writes advFrom's entry while
//     the memo names it: a skip needs advFrom != k, and every write that
//     refills an emptied column runs a decision first, so a memo that
//     outlived its column fails this test.
//   - The last run was native and unconstrained: no Path Selection set, no
//     min-next-hop requirement (RPA or VendorMinECMP), so no KeepFibWarm
//     hold either. Its advertised route is then bestOf(selected), a member
//     of the most preferred tier, which native selection keeps whole.
//   - No Path Selection or Route Attribute statement can shape p at all
//     (core.Evaluator.MayShape). Which statement governs is decided on
//     cands[0], which a dominated route can become, carrying a community a
//     destination matches; and Route Attribute weights depend on the clock.
//   - The advertised route is strictly better than nu and than the route nu
//     replaces. Neither then belongs to the top tier, so the selected routes,
//     their weights, the FIB entry, the advertised route and the recorded
//     DecisionInfo all come out as they are.
func (s *Speaker) dominated(p netip.Prefix, st *prefixState, k int32, i int, found bool, nu *Route) bool {
	if !s.memoCurrent(st) || st.advFrom < 0 || st.advFrom == k || st.last.ViaRPA || st.last.MnhRequired != 0 {
		return false
	}
	j, ok := st.findCandidate(st.advFrom)
	if !ok {
		return false
	}
	adv := &st.cands[j].Attrs
	return (nu == nil || better(adv, nu)) && (!found || better(adv, &st.cands[i].Attrs)) && !s.rpa.MayShape(p)
}

// decide finishes an Adj-RIB-In write to p's column: a dominated one leaves
// the decision's residue, any other runs the decision.
func (s *Speaker) decide(p netip.Prefix, st *prefixState, skip bool) {
	if skip {
		s.skipDecision(p, st)
		return
	}
	s.recompute(p, st)
}

// skipDecision leaves exactly what recomputeOne would for a dominated change:
// a native decision's counters, the baseline's high-water mark (the column
// may have gained a device), the FIB's no-op rewrite (fib.Table.Touch) and the
// advertise memo's hit. The rest of what a run writes — st.last, the FIB
// entry, the Adj-RIB-Out — it would write with the values already there, and
// the tap hears nothing, as the FIB entry does not change.
func (s *Speaker) skipDecision(p netip.Prefix, st *prefixState) {
	s.stats.Recomputes++
	s.stats.NativeDecisions++
	s.raiseBaseline(st)
	s.fibTbl.Touch(p)
	s.incr.AdvertiseMemoHits++
	s.incr.SkippedRecomputes++
}

// localHops is the next-hop set for locally originated prefixes.
var localHops = []fib.NextHop{{ID: LocalNextHop, Weight: 1}}

// distinctDevicesOf counts distinct next-hop devices among the indexed
// candidates (all candidates when idx is nil). A candidate's next hop is its
// session's device, so the count is of device ordinals.
func (s *Speaker) distinctDevicesOf(cands []Candidate, idx []int) int {
	gen, n := s.devs.next(len(s.peers)), 0
	count := len(cands)
	if idx != nil {
		count = len(idx)
	}
	for j := 0; j < count; j++ {
		i := j
		if idx != nil {
			i = idx[j]
		}
		if d := s.peers[cands[i].Peer].dev; s.devs.seen[d] != gen {
			s.devs.seen[d] = gen
			n++
		}
	}
	return n
}

// devStamps counts distinct device ordinals without a map: seen[d] == gen
// marks ordinal d as met in the current pass.
type devStamps struct {
	seen []uint32
	gen  uint32
}

// next starts a pass over ordinals below n.
func (d *devStamps) next(n int) uint32 {
	if len(d.seen) < n {
		d.seen = make([]uint32, n)
	}
	if d.gen++; d.gen == 0 {
		clear(d.seen)
		d.gen = 1
	}
	return d.gen
}

// devOrdinal returns the ordinal of a session to device joining peers: that
// of a session already to it, or else the next one. Ordinals stay dense, from
// 0 to the number of distinct devices (see RemovePeer), so they are below
// the peer count.
func devOrdinal(peers []peer, device string) int32 {
	next := int32(0)
	for i := range peers {
		if peers[i].device == device {
			return peers[i].dev
		}
		next = max(next, peers[i].dev+1)
	}
	return next
}

// equal reports whether r is, to the advertise step, the route recorded.
// Egress RouteFilters read only prefix and peer name, so equality here plus
// an unchanged advertisement epoch proves a repeat advertise call is
// suppressed on every session.
func (a *advRoute) equal(r *Route) bool {
	return a.origin == r.Origin && slices.Equal(a.path, r.ASPath) && slices.Equal(a.comms, r.Communities)
}

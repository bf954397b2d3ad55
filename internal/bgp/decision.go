package bgp

import (
	"net/netip"
	"slices"
	"strings"

	"centralium/internal/core"
	"centralium/internal/fib"
	"centralium/internal/telemetry"
)

// recompute runs the decision pipeline for p, whose bookkeeping is st (see
// state), and, when a tap is attached, reports installed best-path changes by
// comparing the prefix's canonical FIB group key across the run.
// Disabled-tap cost is one nil compare.
func (s *Speaker) recompute(p netip.Prefix, st *prefixState) {
	if s.tap == nil {
		s.recomputeOne(p, st)
		return
	}
	before := s.fibTbl.EntryKey(p)
	s.recomputeOne(p, st)
	after := s.fibTbl.EntryKey(p)
	if before != after {
		s.tap.Emit(telemetry.Event{
			Kind:     telemetry.KindBestPath,
			Time:     s.now(),
			Device:   s.cfg.ID,
			Prefix:   p,
			Withdraw: after == "",
		})
	}
}

// recomputeOne runs the full Figure 6 pipeline for one prefix: gather
// candidates, select paths (RPA or native), enforce min-next-hop, assign
// weights (RPA or ECMP/WCMP), install the FIB, and advertise.
func (s *Speaker) recomputeOne(p netip.Prefix, st *prefixState) {
	s.stats.Recomputes++
	info := DecisionInfo{AdvertisedPathLen: -1, MaxSelectedPathLen: -1, WeightMode: "ecmp"}
	defer func() {
		info.Withdrawn = len(st.advertised) == 0
		st.last, st.hasLast = info, true
	}()

	// Locally originated prefixes: local route wins, peers' routes unused.
	if oi, ok := s.originated[p]; ok {
		info.Originated = true
		info.AdvertisedPathLen = 0
		if oi.installFIB {
			s.fibTbl.Install(p, localHops)
		} else {
			s.fibTbl.Remove(p)
		}
		localAttrs := core.RouteAttrs{
			Prefix:            p,
			Communities:       oi.communities,
			Origin:            oi.origin,
			LinkBandwidthGbps: oi.bandwidthGbps,
		}
		s.advertise(p, st, &localAttrs, -1, oi.bandwidthGbps)
		return
	}

	cands := st.cands
	if len(cands) == 0 {
		s.fibTbl.Remove(p)
		s.withdrawAll(p, st)
		return
	}

	// Track the high-water distinct-next-hop baseline for percentage
	// thresholds ("75% of full health").
	if len(cands) > st.baseline {
		if n := s.distinctDevicesOf(cands, nil); n > st.baseline {
			st.baseline = n
		}
	}

	// SelectPaths wants the routes contiguous; the first statement matching
	// candidate 0 governs, so without one the copy is skipped and the native
	// path taken directly.
	dec := core.SelectionDecision{UsedNative: true}
	if s.rpa.HasPathSelection(&cands[0].Attrs) {
		attrs := s.attrsScratch[:0]
		for i := range cands {
			attrs = append(attrs, cands[i].Attrs)
		}
		s.attrsScratch = attrs
		dec = s.rpa.SelectPaths(attrs, st.baseline)
	}

	var selected []int
	viaRPA := false
	if !dec.UsedNative {
		selected = dec.Selected
		viaRPA = true
		info.ViaRPA = true
		info.MatchedSet = dec.MatchedSet
		s.stats.RPASelections++
		s.emitRPAHit(p, dec.MatchedSet)
	} else {
		selected = nativeSelect(s.selScratch, cands, s.cfg.Multipath)
		s.selScratch = selected
		s.stats.NativeDecisions++

		// BgpNativeMinNextHop (RPA) and the vendor minimum-ECMP knob both
		// constrain the native result.
		nc := s.rpa.NativeConstraintFor(&cands[0].Attrs)
		required := 0
		keepWarm := false
		if nc.Present {
			required = nc.MinNextHop.Required(nc.Baseline(st.baseline))
			keepWarm = nc.KeepFibWarm
		}
		if s.cfg.VendorMinECMP > required {
			required = s.cfg.VendorMinECMP
		}
		info.MnhRequired = required
		info.KeepWarmOnViolation = keepWarm
		if required > 0 && s.distinctDevicesOf(cands, selected) < required {
			s.stats.MnhWithdrawals++
			info.MnhWithdrawn = true
			if nc.Present {
				s.emitRPAHit(p, "bgp-native-min-next-hop")
			}
			if keepWarm {
				// Keep forwarding entries so in-flight packets survive,
				// but advertise nothing (the Figure 14 footgun).
				_, info.WeightMode = s.installFIB(p, cands, selected)
				s.fibTbl.MarkWarm(p)
			} else {
				s.fibTbl.Remove(p)
			}
			s.withdrawAll(p, st)
			return
		}
	}

	if len(selected) == 0 {
		s.fibTbl.Remove(p)
		s.withdrawAll(p, st)
		return
	}

	info.SelectedPaths = len(selected)
	info.DistinctNextHops = s.distinctDevicesOf(cands, selected)
	for _, i := range selected {
		if l := len(cands[i].Attrs.ASPath); l > info.MaxSelectedPathLen {
			info.MaxSelectedPathLen = l
		}
	}

	var aggBW float64
	aggBW, info.WeightMode = s.installFIB(p, cands, selected)

	// Advertisement: RPA speakers advertise the least favorable selected
	// path (Section 5.3.1); native decisions advertise the best path.
	var advIdx int
	if viaRPA && s.cfg.Advertise == AdvertiseLeastFavorable {
		advIdx = leastFavorable(cands, selected)
	} else {
		advIdx = bestOf(cands, selected)
	}
	info.AdvertisedPathLen = len(cands[advIdx].Attrs.ASPath)
	s.advertise(p, st, &cands[advIdx].Attrs, cands[advIdx].Peer, aggBW)
}

// gather returns the prefix's candidates in deterministic (rank) order:
// its Adj-RIB-In column, in place. Callers must not modify or retain it.
func (s *Speaker) gather(p netip.Prefix) []Candidate {
	if st := s.prefixes[p]; st != nil {
		return st.cands
	}
	return nil
}

// better reports whether a is strictly preferred over b by the native BGP
// decision process up to (not including) the arbitrary tie-breaks:
// higher LocalPref, then shorter AS path, then lower origin, then lower MED.
func better(a, b *core.RouteAttrs) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.MED < b.MED
}

// equalPreference reports whether two routes tie on all compared attributes
// (the multipath condition).
func equalPreference(a, b *core.RouteAttrs) bool {
	return !better(a, b) && !better(b, a)
}

// nativeSelect runs native path selection: the maximal equally-preferred
// set under the standard comparison; multipath keeps the whole set, single
// path mode keeps the deterministic best. The result is written into dst
// (the speaker's index scratch; nil allocates).
func nativeSelect(dst []int, cands []Candidate, multipath bool) []int {
	if len(cands) == 0 {
		return nil
	}
	// One pass: out holds the routes tied with out[0], the first of the most
	// preferred seen so far.
	out := append(dst[:0], 0)
	for i := 1; i < len(cands); i++ {
		a, b := &cands[i].Attrs, &cands[out[0]].Attrs
		if better(a, b) {
			out = append(out[:0], i)
		} else if !better(b, a) {
			out = append(out, i)
		}
	}
	if !multipath {
		// Final tie-breaks: lowest peer device, then lowest session.
		best := out[0]
		for _, i := range out[1:] {
			if tieBreakLess(&cands[i], &cands[best]) {
				best = i
			}
		}
		return append(out[:0], best)
	}
	return out
}

func tieBreakLess(a, b *Candidate) bool {
	if a.Attrs.Peer != b.Attrs.Peer {
		return a.Attrs.Peer < b.Attrs.Peer
	}
	return a.Peer < b.Peer // ranks sort as the session IDs do
}

// bestOf returns the index (into cands) of the best route among selected,
// with deterministic tie-breaks.
func bestOf(cands []Candidate, selected []int) int {
	best := selected[0]
	for _, i := range selected[1:] {
		if better(&cands[i].Attrs, &cands[best].Attrs) {
			best = i
		} else if equalPreference(&cands[i].Attrs, &cands[best].Attrs) && tieBreakLess(&cands[i], &cands[best]) {
			best = i
		}
	}
	return best
}

// leastFavorable returns the index of the selected route with the least
// favorable attributes — longest AS path first (Section 5.3.1), then the
// inverse of the standard tie-breaks, deterministically.
func leastFavorable(cands []Candidate, selected []int) int {
	worst := selected[0]
	for _, i := range selected[1:] {
		a, w := &cands[i].Attrs, &cands[worst].Attrs
		switch {
		case len(a.ASPath) != len(w.ASPath):
			if len(a.ASPath) > len(w.ASPath) {
				worst = i
			}
		case better(w, a):
			worst = i
		case equalPreference(a, w) && !tieBreakLess(&cands[i], &cands[worst]):
			worst = i
		}
	}
	return worst
}

// installFIB writes the weighted next-hop set for the selected routes and
// returns the aggregate advertised bandwidth for WCMP mode plus the weight
// assignment mode ("rpa", "wcmp", or "ecmp"). Weights are always computed
// fresh (RouteAttribute expiry is clock-dependent); the table itself
// recognises an install that rewrites the live entry with the same set.
func (s *Speaker) installFIB(p netip.Prefix, cands []Candidate, selected []int) (float64, string) {
	mode := "ecmp"
	if cap(s.weightScratch) < len(selected) {
		s.weightScratch = make([]int, len(selected))
	}
	weights := s.weightScratch[:len(selected)]
	clear(weights)

	// AssignWeights wants the selected routes contiguous; the first
	// statement whose destination matches route 0 governs, so without a
	// candidate statement the copy is skipped.
	var wd core.WeightDecision
	if s.rpa.HasRouteAttribute(&cands[selected[0]].Attrs) {
		attrs := s.wattsScratch[:0]
		for _, i := range selected {
			attrs = append(attrs, cands[i].Attrs)
		}
		s.wattsScratch = attrs
		wd = s.rpa.AssignWeights(attrs, s.now())
	}
	if wd.Applied {
		mode = "rpa"
		copy(weights, wd.Weights)
		s.stats.WeightOverrides++
		s.emitRPAHit(p, wd.Statement)
	} else if s.cfg.WCMP == WCMPDistributed {
		mode = "wcmp"
		for k, i := range selected {
			bw := cands[i].Attrs.LinkBandwidthGbps
			if bw <= 0 {
				bw = s.peerCapacity(cands[i].Peer)
			}
			w := int(bw)
			if w < 1 {
				w = 1
			}
			weights[k] = w
		}
	} else {
		for k := range weights {
			weights[k] = 1
		}
	}

	hops := s.hopsScratch[:0]
	aggBW := 0.0
	for k, i := range selected {
		if weights[k] <= 0 {
			continue // weight 0 = drained path: selected but carries nothing
		}
		hops = append(hops, fib.NextHop{ID: string(s.peers[cands[i].Peer].session), Weight: weights[k]})
		bw := cands[i].Attrs.LinkBandwidthGbps
		if bw <= 0 {
			bw = s.peerCapacity(cands[i].Peer)
		}
		aggBW += bw
	}
	s.hopsScratch = hops
	s.fibTbl.Install(p, hops)
	return aggBW, mode
}

// emitRPAHit reports an RPA statement (or path set) governing a decision.
func (s *Speaker) emitRPAHit(p netip.Prefix, statement string) {
	if s.tap == nil {
		return
	}
	s.tap.Emit(telemetry.Event{
		Kind:      telemetry.KindRPAHit,
		Time:      s.now(),
		Device:    s.cfg.ID,
		Prefix:    p,
		Statement: statement,
	})
}

func (s *Speaker) peerCapacity(k int32) float64 { return s.peers[k].linkGbps }

// advKeyOf renders the canonical PathKey of an advertisement. Duplicate
// suppression compares advContent structurally; the string is only built
// for checkpoints, AdjRIBOut, and entries restored from a checkpoint.
func advKeyOf(path []uint32, comms []string, origin core.Origin) string {
	var b strings.Builder
	for _, asn := range path {
		b.WriteString(" ")
		b.WriteString(uitoa(asn))
	}
	b.WriteString("|")
	sorted := slices.Clone(comms)
	slices.Sort(sorted)
	b.WriteString(strings.Join(sorted, ","))
	b.WriteString("|")
	b.WriteString(origin.String())
	return b.String()
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// advertise sends the chosen route to every eligible session, and
// withdrawals to sessions that previously heard this prefix but are no
// longer eligible.
//
// from is the rank of the session the advertised route was learned on (-1
// for locally originated routes); the split-horizon rule never
// re-advertises a route to the device it came from.
func (s *Speaker) advertise(p netip.Prefix, st *prefixState, route *core.RouteAttrs, from int32, aggBW float64) {
	if s.drained {
		s.withdrawAll(p, st)
		return
	}
	// Advertisement memo: under an unchanged epoch (same peers, prepends,
	// drain state, and egress policy) a repeat call with the same route
	// content, source session, and aggregate bandwidth builds the same
	// content and suppresses it on every session — eligibility reads only
	// the prefix and peer names, and messages carry only the AS path,
	// communities, origin, and bandwidth compared here. Skip the loop —
	// unless this speaker is the oracle, which always walks it: the one
	// branch the mode decides.
	if !s.fullRecompute && st.advOK && st.advEpoch == s.advEpoch && st.advFrom == from &&
		st.advBW == aggBW && st.advRoute.equal(route) {
		s.incr.AdvertiseMemoHits++
		return
	}
	fromDev := int32(-1)
	if from >= 0 {
		fromDev = s.peers[from].dev
	}
	bw := 0.0
	if s.cfg.WCMP == WCMPDistributed {
		bw = aggBW
	}

	// built holds this call's contents, one per distinct prepend. The peers
	// and the column are both in rank order, so i walks the column beside
	// the loop: before rank k it is where k's entry is or would go.
	built := s.advScratch[:0]
	i := 0
	for k := range s.peers {
		pr := &s.peers[k]
		rank := int32(k)
		found := i < len(st.advertised) && st.advertised[i].Peer == rank
		// Split horizon toward the source device, then the egress policy.
		if pr.dev == fromDev || !s.rpa.AllowRoute(route, pr.device, core.Egress) {
			if found {
				st.advertised = slices.Delete(owned(st.advertised, &st.advShared, 0), i, i+1)
				st.advOK = false
				s.sendWithdraw(p, rank)
			}
			continue
		}

		pathLen := 1 + pr.prepend + len(route.ASPath)
		var c *advContent
		for _, b := range built {
			if len(b.path) == pathLen {
				c = b
				break
			}
		}
		if c == nil {
			// Prepend own ASN (1 + maintenance prepend) onto the path.
			c = &advContent{comms: route.Communities, origin: route.Origin}
			c.path = c.inline[:0]
			if pathLen > len(c.inline) {
				c.path = make([]uint32, 0, pathLen)
			}
			for j := 0; j <= pr.prepend; j++ {
				c.path = append(c.path, s.cfg.ASN)
			}
			c.path = append(c.path, route.ASPath...)
			built = append(built, c)
		}

		dup := found && st.advertised[i].matches(c, bw)
		if dup && st.advertised[i].content != nil {
			i++
			continue // nothing changed on this session
		}
		if st.advertised == nil {
			// Nearly every peer ends up in the column; size it once.
			st.advertised = make([]AdvState, 0, len(s.peers))
		}
		// For a duplicate this only upgrades a checkpoint-restored entry to
		// the content it matched.
		st.advertised = putEntry(st.advertised, &st.advShared, i, found, AdvState{Peer: rank, BW: bw, PathLen: pathLen, content: c})
		i++
		if dup {
			continue
		}
		s.stats.UpdatesSent++
		s.outbox = append(s.outbox, OutMsg{Session: pr.session, Update: Update{
			Prefix:            p,
			ASPath:            c.path,
			Communities:       c.comms,
			Origin:            c.origin,
			LinkBandwidthGbps: bw,
		}})
	}
	clear(built)
	s.advScratch = built[:0]
	// Record after the loop: any withdrawal inside it cleared advOK, and the
	// loop's final state is exactly what the memo asserts. The oracle records
	// too, so the memo is current whenever a mode switch starts trusting it.
	st.advOK = true
	st.advEpoch = s.advEpoch
	st.advFrom = from
	st.advBW = aggBW
	st.advRoute = advRoute{origin: route.Origin, path: route.ASPath, comms: route.Communities}
}

// withdrawAll retracts the prefix from every session it was advertised on,
// in session order. The column is dropped, not edited, so never copied.
func (s *Speaker) withdrawAll(p netip.Prefix, st *prefixState) {
	if len(st.advertised) == 0 {
		return
	}
	for i := range st.advertised {
		s.sendWithdraw(p, st.advertised[i].Peer)
	}
	st.advertised, st.advShared = nil, false
	// The advertisement memo asserts the Adj-RIB-Out it recorded; any
	// withdrawal invalidates it.
	st.advOK = false
}

// sendWithdraw queues the withdrawal of p on rank k. Every rank a column
// holds is a peer: RemovePeer drops a session's entries with it.
func (s *Speaker) sendWithdraw(p netip.Prefix, k int32) {
	s.stats.WithdrawalsSent++
	s.outbox = append(s.outbox, OutMsg{Session: s.peers[k].session, Update: Update{Prefix: p, Withdraw: true}})
}

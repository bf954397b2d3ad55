package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"centralium/internal/core"
	"centralium/internal/fib"
	"centralium/internal/telemetry"
)

// LocalNextHop is the FIB next-hop ID installed for locally originated
// prefixes; the traffic model treats it as final delivery.
const LocalNextHop = "local"

// Speaker is one emulated BGP daemon. It is single-threaded by design,
// mirroring a real daemon's decision thread, and owns no state shared with
// other speakers: peers, prefix state (which holds the Adj-RIB-In, one
// column per prefix), FIB table, and the RPA evaluator are all per-instance,
// and every side effect is handed off through two explicit channels — the
// outbox (drained via TakeOutbox by whoever drives the speaker) and the
// telemetry tap (set via SetTap). What speakers do share is immutable: the
// AS-path and community slices of an Update travel by reference from the
// sender's advertisement through the event queue into the receiver's
// Adj-RIB-In, and nobody writes through them (see HandleUpdate); and a
// speaker restored from a checkpoint reads its record, which sibling forks
// of the same checkpoint read too, until it has built its own state out of
// it (see NewSpeakerFromState). A speaker may be driven from any goroutine
// as long as no two goroutines touch the same speaker concurrently; the
// fabric drives all of a network's speakers from its one event loop.
type Speaker struct {
	cfg Config
	// peers is sorted by session ID: a session's index is its rank, which
	// every column entry holds (see Candidate).
	peers []peer

	originated map[netip.Prefix]originInfo
	prefixes   map[netip.Prefix]*prefixState

	rpa     *core.Evaluator
	fibTbl  *fib.Table
	outbox  []OutMsg
	stats   Stats
	drained bool

	// pending is the checkpoint a restored speaker has not built its peers,
	// originated, prefixes and rpa from yet; nil once load has.
	pending *SpeakerState

	// dirty records that something a checkpoint carries has been written
	// since the speaker was restored or its owner last called MarkClean
	// (see Touch). It is bookkeeping about the state, not part of it.
	dirty bool

	// now supplies the emulation clock for Route Attribute expiry.
	now func() int64

	// tap receives telemetry events; nil means disabled, and every emit
	// site guards on that so the disabled hot path is one pointer compare.
	tap telemetry.Tap

	// fullRecompute makes the speaker the oracle: advertise ignores its memo
	// (see incremental.go). The rest is derived state, never serialized.
	fullRecompute bool
	// advEpoch invalidates every advertisement memo at once on triggers
	// that change advertise behavior globally (peer set, prepends, drain,
	// RPA egress policy).
	advEpoch uint64
	incr     IncrementalStats

	// devs numbers neighbour devices and counts them without a map.
	devs devStamps

	// Scratch buffers reused across decision runs (the speaker is
	// single-threaded and the pipeline never retains them).
	attrsScratch  []core.RouteAttrs
	wattsScratch  []core.RouteAttrs
	hopsScratch   []fib.NextHop
	selScratch    []int
	weightScratch []int
	advScratch    []builtContent
	// spare is a content the last advertise call built and no session
	// stored, so nothing points at it: the next call builds into it.
	spare *advContent
}

// NewSpeaker constructs a speaker. The clock function may be nil (treated
// as a constant zero clock).
func NewSpeaker(cfg Config, now func() int64) *Speaker {
	s := newSpeaker(cfg, now)
	s.originated = make(map[netip.Prefix]originInfo)
	s.prefixes = make(map[netip.Prefix]*prefixState)
	s.rpa = noRPA.NewEvaluator()
	s.fibTbl = fib.New(cfg.FIBGroupLimit)
	return s
}

// newSpeaker applies the configuration defaults; the caller fills in the
// maps, the RPA evaluator and the FIB (empty ones, or a checkpoint's to
// build them from).
func newSpeaker(cfg Config, now func() int64) *Speaker {
	cfg.LocalPref = cfg.EffectiveLocalPref()
	if now == nil {
		now = func() int64 { return 0 }
	}
	return &Speaker{cfg: cfg, fullRecompute: defaultFullRecompute, now: now}
}

// noRPA is the program of every speaker without a deployed RPA, compiled once
// and shared like any other; the empty config has no statement to refuse.
var noRPA, _ = core.Compile(&core.Config{})

// Touch marks the speaker's checkpointed state as changed. Every method that
// writes anything ExportState reads — configuration, peers, originated
// prefixes, prefix state, the RPA program or its match cache, the FIB, the
// counters — calls it before it writes; TestDirtyCoversEveryMutator
// (internal/fabric) holds that line. The speaker's owner calls it for what it
// writes beside or beneath the speaker: the fabric's per-node checkpoint
// slots, a FIB written through FIB(). A restored speaker builds what it
// reads and writes from its checkpoint here (load), if it has not yet.
func (s *Speaker) Touch() {
	s.load()
	s.dirty = true
}

// Dirty reports whether Touch has run since the speaker was restored from a
// checkpoint (NewSpeakerFromState) or MarkClean was last called. While it is
// false, ExportState would return what the speaker was restored from, or what
// it returned just before MarkClean.
func (s *Speaker) Dirty() bool { return s.dirty }

// MarkClean is for the owner that just took ExportState's result as the
// state it will compare against from now on.
func (s *Speaker) MarkClean() { s.dirty = false }

// ID returns the speaker's device name.
func (s *Speaker) ID() string { return s.cfg.ID }

// FIB exposes the speaker's forwarding table.
func (s *Speaker) FIB() *fib.Table { return s.fibTbl }

// Stats returns a snapshot of the activity counters.
func (s *Speaker) Stats() Stats { return s.stats }

// RPAConfig returns the currently deployed RPA configuration, read-only.
func (s *Speaker) RPAConfig() *core.Config { return s.Program().Config() }

// Program returns the deployed configuration's compiled form: the pointer
// SetRPA compiled or NewSpeakerFromState adopted. A restored speaker answers
// from its checkpoint without building its evaluator.
func (s *Speaker) Program() *core.Program {
	if st := s.pending; st != nil {
		if st.RPA != nil {
			return st.RPA
		}
		return noRPA
	}
	return s.rpa.Program()
}

// SetTap attaches (or, with nil, detaches) a telemetry tap. The tap sees
// session lifecycle, Adj-RIB-In activity, best-path changes, FIB/NHG
// writes, and RPA statement hits, all stamped with the speaker's clock.
func (s *Speaker) SetTap(t telemetry.Tap) {
	s.tap = t
	if t == nil {
		s.fibTbl.SetObserver(nil)
		return
	}
	s.fibTbl.SetObserver(func(w fib.WriteEvent) {
		t.Emit(telemetry.Event{
			Kind:       telemetry.KindFIBWrite,
			Time:       s.now(),
			Device:     s.cfg.ID,
			Prefix:     w.Prefix,
			Withdraw:   w.Removed,
			Warm:       w.Warm,
			FIBEntries: w.Entries,
			NHGroups:   w.Groups,
			NHGLimit:   w.Limit,
			NHGChurn:   w.GroupChurn,
			Overflows:  w.Overflows,
		})
	})
}

// TakeOutbox returns and clears the pending outgoing messages.
func (s *Speaker) TakeOutbox() []OutMsg {
	out := s.outbox
	s.outbox = nil
	return out
}

// RecycleOutbox hands a slice obtained from TakeOutbox back once its
// messages have been routed, so the next decision run appends into the same
// backing array. The caller must not touch buf afterwards.
func (s *Speaker) RecycleOutbox(buf []OutMsg) {
	if s.outbox == nil {
		clear(buf)
		s.outbox = buf[:0]
	}
}

// AddPeer registers a session to a neighboring device. Existing
// advertisements are replayed onto the new session. A session that sorts
// before existing ones renumbers the column entries of the ranks it moves.
func (s *Speaker) AddPeer(sess SessionID, device string, asn uint32, linkGbps float64) {
	s.load()
	k, dup := s.rank(sess)
	if dup {
		panic(fmt.Sprintf("bgp %s: duplicate session %q", s.cfg.ID, sess))
	}
	s.Touch()
	pr := peer{session: sess, device: device, dev: devOrdinal(s.peers, device), asn: asn, linkGbps: linkGbps}
	s.peers = slices.Insert(s.peers, int(k), pr)
	if int(k) < len(s.peers)-1 {
		for _, st := range s.prefixes {
			st.renumber(k, 1)
		}
	}
	if s.tap != nil {
		s.tap.Emit(telemetry.Event{
			Kind: telemetry.KindSessionUp, Time: s.now(), Device: s.cfg.ID,
			Session: string(sess), Peer: device, PeerASN: asn,
		})
	}
	s.advEpoch++
	// Replay current decisions to the new peer.
	s.recomputeAll()
}

// RemovePeer tears down a session: its routes leave the RIB and affected
// prefixes are recomputed.
func (s *Speaker) RemovePeer(sess SessionID) {
	s.load()
	k, ok := s.rank(sess)
	if !ok {
		return
	}
	s.Touch()
	pr := s.peers[k]
	var affected []netip.Prefix
	for p, st := range s.prefixes {
		if i, found := st.findCandidate(k); found {
			st.dropCandidate(i)
			affected = append(affected, p)
		}
		st.dropAdv(k)
		st.renumber(k+1, -1)
	}
	sortPrefixes(affected)
	s.peers = slices.Delete(s.peers, int(k), int(k)+1)
	// Keep the device ordinals dense: when a device's last session goes, the
	// device with the highest ordinal takes over its number.
	if !slices.ContainsFunc(s.peers, func(p peer) bool { return p.dev == pr.dev }) {
		top := int32(-1)
		for i := range s.peers {
			top = max(top, s.peers[i].dev)
		}
		for i := range s.peers {
			if s.peers[i].dev == top && top > pr.dev {
				s.peers[i].dev = pr.dev
			}
		}
	}
	s.advEpoch++
	if s.tap != nil {
		s.tap.Emit(telemetry.Event{
			Kind: telemetry.KindSessionDown, Time: s.now(), Device: s.cfg.ID,
			Session: string(sess), Peer: pr.device, PeerASN: pr.asn,
		})
	}
	for _, p := range affected {
		s.recompute(p, s.state(p))
	}
}

// rank returns the rank of sess, or the rank it would take, and whether it
// is a peer.
func (s *Speaker) rank(sess SessionID) (int32, bool) {
	lo, hi := 0, len(s.peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.peers[mid].session < sess {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo), lo < len(s.peers) && s.peers[lo].session == sess
}

// Peers returns the registered session IDs, sorted.
func (s *Speaker) Peers() []SessionID {
	s.load()
	return s.sessionOrder()
}

// sessionOrder renders the peers' session IDs in rank order.
func (s *Speaker) sessionOrder() []SessionID {
	out := make([]SessionID, len(s.peers))
	for i := range s.peers {
		out[i] = s.peers[i].session
	}
	return out
}

// SetPeerPrepend sets the export AS-path prepend count toward a neighboring
// device (across all its sessions). This is the "preset export policy"
// maintenance mechanism of Section 3.4: prepending makes this speaker's
// advertisements less favorable. All prefixes are re-advertised.
func (s *Speaker) SetPeerPrepend(device string, n int) {
	s.Touch()
	for i := range s.peers {
		if s.peers[i].device == device {
			s.peers[i].prepend = n
		}
	}
	s.reAdvertiseAll()
}

// SetAllPeersPrepend sets the export prepend toward every peer — the whole
// device entering maintenance.
func (s *Speaker) SetAllPeersPrepend(n int) {
	s.Touch()
	for i := range s.peers {
		s.peers[i].prepend = n
	}
	s.reAdvertiseAll()
}

// reAdvertiseAll recomputes after an export-policy change.
func (s *Speaker) reAdvertiseAll() {
	s.advEpoch++
	s.recomputeAll()
}

// SetDrained steers traffic away from this device: while drained, the
// speaker withdraws all its advertisements (but keeps forwarding state so
// in-flight packets drain gracefully).
func (s *Speaker) SetDrained(d bool) {
	if s.drained == d {
		return
	}
	s.Touch()
	s.drained = d
	s.advEpoch++
	s.recomputeAll()
}

// Drained reports the drain state.
func (s *Speaker) Drained() bool { return s.drained }

// SetRPA deploys an RPA configuration, replacing any previous one, and
// re-runs the decision process for every known prefix. This is the
// operation whose latency Figure 12 reports. The config is compiled once and
// kept by reference: the caller must not edit it afterwards (see
// core.Config). Nil removes the RPA.
func (s *Speaker) SetRPA(cfg *core.Config) error {
	prog := noRPA
	if cfg != nil {
		var err error
		if prog, err = core.Compile(cfg); err != nil {
			return fmt.Errorf("bgp %s: %w", s.cfg.ID, err)
		}
	}
	s.SetProgram(prog)
	return nil
}

// SetProgram is SetRPA for a caller that already holds the compiled form —
// one core.Compile serves every speaker and every fork the program is
// deployed to. The program is shared by reference, like a restored one.
func (s *Speaker) SetProgram(prog *core.Program) {
	s.Touch()
	s.rpa = prog.NewEvaluator()
	s.advEpoch++
	s.recomputeAll()
}

// Originate injects a locally originated prefix (e.g. the backbone's
// default route) and advertises it to all peers.
func (s *Speaker) Originate(p netip.Prefix, communities []string, origin core.Origin, bandwidthGbps float64) {
	s.OriginateEx(p, communities, origin, bandwidthGbps, true)
}

// OriginateEx is Originate with control over local forwarding state.
// installFIB=false originates an aggregate the device merely advertises on
// behalf of others: no local delivery entry is installed, so packets for
// the prefix fall through to less-specific routes (or black-hole if there
// are none — the Figure 14 SEV's "not production ready" FA).
func (s *Speaker) OriginateEx(p netip.Prefix, communities []string, origin core.Origin, bandwidthGbps float64, installFIB bool) {
	s.Touch()
	s.originated[p] = originInfo{
		communities:   append([]string(nil), communities...),
		origin:        origin,
		bandwidthGbps: bandwidthGbps,
		installFIB:    installFIB,
	}
	s.recompute(p, s.state(p))
}

// WithdrawOrigin removes a locally originated prefix.
func (s *Speaker) WithdrawOrigin(p netip.Prefix) {
	s.load()
	if _, ok := s.originated[p]; !ok {
		return
	}
	s.Touch()
	delete(s.originated, p)
	s.recompute(p, s.state(p))
}

// HandleUpdate processes one received UPDATE on a session: loop check,
// ingress RouteFilter RPA, Adj-RIB-In write, decision.
//
// The speaker keeps u.ASPath and u.Communities by reference — in its
// Adj-RIB-In and, prepended onto a fresh path, in what it advertises on —
// so the caller hands them over for good: they must not be written to
// after the call. Every producer obeys this by construction (advertise
// builds a new path per call, the snapshot decoder allocates per message),
// and taps and perturbers may likewise retain what they are shown.
func (s *Speaker) HandleUpdate(sess SessionID, u Update) {
	// First thing: the fabric stamps its per-node delivery clock, which the
	// checkpoint carries beside the speaker, immediately before every call.
	s.Touch()
	k, ok := s.rank(sess)
	if !ok {
		return // session raced down; drop silently like a closed TCP conn
	}
	pr := &s.peers[k]
	s.stats.UpdatesReceived++
	if u.Withdraw {
		if st, skip := s.dropRoute(u.Prefix, k); st != nil {
			s.emitAdjIn(pr, &u)
			s.decide(u.Prefix, st, skip)
		}
		return
	}
	// Sanity: AS-path loop prevention (RFC 4271 §9.1.2).
	for _, asn := range u.ASPath {
		if asn == s.cfg.ASN {
			s.stats.LoopRejects++
			return
		}
	}
	// Sanity: eBGP enforce-first-AS — the leftmost ASN must be the peer's.
	if len(u.ASPath) == 0 || u.ASPath[0] != pr.asn {
		s.stats.FirstASRejects++
		return
	}
	route := Route{ASPath: u.ASPath, MED: u.MED, Origin: u.Origin, LinkBandwidthGbps: u.LinkBandwidthGbps}
	if len(u.Communities) > 0 { // an empty list is stored as nil, as a decoded checkpoint holds it
		route.Communities = u.Communities
	}
	// Ingress Route Filter RPA (Figure 6: after sanity and ingress policy).
	// The filter is shown the whole route; the column keeps the peer's part.
	attrs := core.RouteAttrs{
		Prefix:            u.Prefix,
		ASPath:            route.ASPath,
		Communities:       route.Communities,
		LocalPref:         s.cfg.LocalPref,
		MED:               route.MED,
		Origin:            route.Origin,
		NextHop:           pr.device,
		Peer:              pr.device,
		LinkBandwidthGbps: route.LinkBandwidthGbps,
	}
	if !s.rpa.AllowRoute(&attrs, pr.device, core.Ingress) {
		s.stats.FilterRejects++
		// A denied route must also clear any previous RIB entry.
		if st, skip := s.dropRoute(u.Prefix, k); st != nil {
			s.decide(u.Prefix, st, skip)
		}
		return
	}
	st := s.state(u.Prefix)
	if st.cands == nil {
		// Nearly every peer ends up in the column; size it once.
		st.cands = make([]Candidate, 0, len(s.peers))
	}
	i, found := st.findCandidate(k)
	skip := s.dominated(u.Prefix, st, k, i, found, &route)
	st.setCandidate(i, found, k, route)
	s.emitAdjIn(pr, &u)
	s.decide(u.Prefix, st, skip)
}

// dropRoute removes rank k's route for p from the Adj-RIB-In and returns the
// prefix's bookkeeping, nil when there was no such route, and whether the
// removal was dominated (see dominated).
func (s *Speaker) dropRoute(p netip.Prefix, k int32) (*prefixState, bool) {
	st := s.prefixes[p]
	if st == nil {
		return nil, false
	}
	i, found := st.findCandidate(k)
	if !found {
		return nil, false
	}
	skip := s.dominated(p, st, k, i, true, nil)
	st.dropCandidate(i)
	return st, skip
}

// emitAdjIn reports an accepted Adj-RIB-In write (install or withdrawal).
func (s *Speaker) emitAdjIn(pr *peer, u *Update) {
	if s.tap == nil {
		return
	}
	s.tap.Emit(telemetry.Event{
		Kind:              telemetry.KindAdjRIBIn,
		Time:              s.now(),
		Device:            s.cfg.ID,
		Session:           string(pr.session),
		Peer:              pr.device,
		PeerASN:           pr.asn,
		Prefix:            u.Prefix,
		Withdraw:          u.Withdraw,
		ASPath:            u.ASPath,
		MED:               u.MED,
		LinkBandwidthGbps: u.LinkBandwidthGbps,
	})
}

// Candidates returns the RIB routes for a prefix, rendered whole, in the same
// deterministic order the decision process sees them. Used by the debug
// tooling (Section 7.2) to explain selection.
func (s *Speaker) Candidates(p netip.Prefix) []core.RouteAttrs {
	s.load()
	cands := s.gather(p)
	out := make([]core.RouteAttrs, len(cands))
	for i := range cands {
		out[i] = s.routeAttrs(p, &cands[i])
	}
	return out
}

// routeAttrs renders the whole route c holds in p's column: the peer's route,
// the column's prefix, the speaker's LocalPref, and its session's device as
// next hop and peer. Only what reads a whole route asks for it: an RPA
// statement that can shape p, and the debug tooling.
func (s *Speaker) routeAttrs(p netip.Prefix, c *Candidate) core.RouteAttrs {
	dev := s.peers[c.Peer].device
	return core.RouteAttrs{
		Prefix:            p,
		ASPath:            c.Attrs.ASPath,
		Communities:       c.Attrs.Communities,
		LocalPref:         s.cfg.LocalPref,
		MED:               c.Attrs.MED,
		Origin:            c.Attrs.Origin,
		NextHop:           dev,
		Peer:              dev,
		LinkBandwidthGbps: c.Attrs.LinkBandwidthGbps,
	}
}

// Baseline returns the prefix's observed full-health next-hop count (the
// denominator for percentage MinNextHop thresholds when the statement does
// not pin ExpectedNextHops).
func (s *Speaker) Baseline(p netip.Prefix) int {
	s.load()
	if st := s.prefixes[p]; st != nil {
		return st.baseline
	}
	return 0
}

// knownPrefixes returns every prefix known from any source, sorted. Every
// Adj-RIB-In column hangs off a prefixState, so the state map plus the
// originated set covers them all.
func (s *Speaker) knownPrefixes() []netip.Prefix {
	ps := make([]netip.Prefix, 0, len(s.prefixes)+len(s.originated))
	for p := range s.prefixes {
		ps = append(ps, p)
	}
	for p := range s.originated {
		if s.prefixes[p] == nil {
			ps = append(ps, p)
		}
	}
	sortPrefixes(ps)
	return ps
}

// recomputeAll re-runs the decision process for every known prefix in
// sorted order. The order matters for reproducibility: recompute emits
// outbox messages, and iterating a Go map here would randomize message
// scheduling (and therefore jitter draws) between runs of the same seed.
func (s *Speaker) recomputeAll() {
	for _, p := range s.knownPrefixes() {
		s.recompute(p, s.state(p))
	}
}

// sortPrefixes orders prefixes by address, then mask length. The ordering
// is a determinism contract: recomputeAll walks prefixes in this order,
// which fixes outbox message order and therefore every downstream jitter
// draw.
func sortPrefixes(ps []netip.Prefix) {
	slices.SortFunc(ps, comparePrefixes)
}

// comparePrefixes is the canonical prefix ordering: by address, then by
// mask length (shorter masks first).
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Decision returns the recorded outcome of the last decision-process run
// for a prefix; ok is false when the prefix has never been computed.
func (s *Speaker) Decision(p netip.Prefix) (DecisionInfo, bool) {
	s.load()
	if st := s.prefixes[p]; st != nil && st.hasLast {
		return st.last, true
	}
	return DecisionInfo{}, false
}

// AdjRIBOut returns what this speaker currently advertises for a prefix,
// per session. The map is a copy; nil when nothing is advertised.
func (s *Speaker) AdjRIBOut(p netip.Prefix) map[SessionID]AdvertisedRoute {
	s.load()
	st := s.prefixes[p]
	if st == nil || len(st.advertised) == 0 {
		return nil
	}
	out := make(map[SessionID]AdvertisedRoute, len(st.advertised))
	for i := range st.advertised {
		a := &st.advertised[i]
		out[s.peers[a.Peer].session] = AdvertisedRoute{PathLen: a.PathLen, PathKey: a.pathKey()}
	}
	return out
}

// AdvertiseMode returns the speaker's configured advertisement rule.
func (s *Speaker) AdvertiseMode() AdvertiseMode { return s.cfg.Advertise }

// state returns (creating if needed) the prefix bookkeeping.
func (s *Speaker) state(p netip.Prefix) *prefixState {
	st := s.prefixes[p]
	if st == nil {
		st = &prefixState{}
		s.prefixes[p] = st
	}
	return st
}

package bgp

// Checkpoint support: SpeakerState is the complete serializable state of a
// Speaker — configuration, peers, originated prefixes, per-prefix state in
// the engine's own layout (the Adj-RIB-In and Adj-RIB-Out columns, baselines,
// last decision), the deployed RPA config with its match cache, the FIB, and
// the activity counters. NewSpeakerFromState rebuilds an equivalent speaker
// by direct state injection: unlike AddPeer/Originate/SetRPA it runs no
// decision process and emits nothing, so restoring is side-effect free and a
// restored speaker continues byte-identically to the captured one. It keeps
// the state and builds from it on first use, adopting the columns by
// reference: a SpeakerState handed to it must never be written again, and
// the speaker copies a column before its first write.

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"centralium/internal/core"
	"centralium/internal/fib"
)

// PeerState is the serializable form of one session's peer record. A
// column entry names its session by rank, the session's position among the
// state's peers sorted by session ID: its index in SpeakerState.Peers, which
// ExportState writes sorted. The session string lives here only.
type PeerState struct {
	Session  SessionID
	Device   string
	ASN      uint32
	LinkGbps float64
	Prepend  int
}

// OriginatedState is the serializable form of one locally originated
// prefix.
type OriginatedState struct {
	Prefix        netip.Prefix
	Communities   []string
	Origin        core.Origin
	BandwidthGbps float64
	InstallFIB    bool
}

// PrefixBookState is the per-prefix bookkeeping and the prefix's two columns.
type PrefixBookState struct {
	Prefix     netip.Prefix
	Baseline   int
	HasLast    bool
	Last       DecisionInfo
	Cands      []Candidate // Adj-RIB-In column, sorted by rank
	Advertised []AdvState  // Adj-RIB-Out column, sorted by rank
}

// SpeakerState is the complete serializable state of one speaker. All
// slices are sorted, so identical speakers export identical states.
type SpeakerState struct {
	Cfg     Config
	Drained bool
	Stats   Stats

	Peers      []PeerState       // sorted by session
	Originated []OriginatedState // sorted by prefix
	Prefixes   []PrefixBookState // sorted by prefix

	// RPA is the deployed program, nil when the config is empty at version
	// 0. ExportState hands over the speaker's own pointer and
	// NewSpeakerFromState adopts it: a capture and its forks run one
	// compiled program. The checkpoint codec stores RPA.JSON().
	RPA   *core.Program
	Cache core.CacheState
	FIB   fib.TableState

	// ordered records that the columns can be adopted in place (see
	// inPeerOrder): ExportState writes them so, and Check found them so. It
	// travels with the value, so a record repeated into a later checkpoint
	// keeps it.
	ordered bool
}

// ExportState captures the speaker for checkpointing. It fails if the
// outbox is non-empty: the fabric drains outboxes synchronously after
// every event, so pending messages mean the caller is checkpointing
// mid-event, where no consistent cut exists. The result shares no mutable
// memory with the speaker: the columns are copied (into one allocation per
// speaker each), route AS paths and communities are immutable everywhere
// (see HandleUpdate) and travel by reference.
func (s *Speaker) ExportState() (SpeakerState, error) {
	s.load()
	if len(s.outbox) > 0 {
		return SpeakerState{}, fmt.Errorf("bgp %s: %d undelivered outbox messages; checkpoint only between events", s.cfg.ID, len(s.outbox))
	}
	// In peer order by construction: the peers are sorted by session, every
	// column is kept sorted by rank (see seek) and names only peers
	// (RemovePeer drops a session's entries).
	st := SpeakerState{Cfg: s.cfg, Drained: s.drained, Stats: s.stats, ordered: true}

	if len(s.peers) > 0 { // none is nil, as a decoded state has it
		st.Peers = make([]PeerState, len(s.peers))
		for i := range s.peers {
			pr := &s.peers[i]
			st.Peers[i] = PeerState{
				Session: pr.session, Device: pr.device, ASN: pr.asn,
				LinkGbps: pr.linkGbps, Prepend: pr.prepend,
			}
		}
	}

	origins := make([]netip.Prefix, 0, len(s.originated))
	for p := range s.originated {
		origins = append(origins, p)
	}
	sortPrefixes(origins)
	for _, p := range origins {
		o := s.originated[p]
		st.Originated = append(st.Originated, OriginatedState{
			Prefix:        p,
			Communities:   o.communities,
			Origin:        o.origin,
			BandwidthGbps: o.bandwidthGbps,
			InstallFIB:    o.installFIB,
		})
	}

	known := make([]netip.Prefix, 0, len(s.prefixes))
	nCands, nAdv := 0, 0
	for p, b := range s.prefixes {
		known = append(known, p)
		nCands += len(b.cands)
		nAdv += len(b.advertised)
	}
	sortPrefixes(known)
	cands := make([]Candidate, 0, nCands)
	advs := make([]AdvState, 0, nAdv)
	if len(known) > 0 {
		st.Prefixes = make([]PrefixBookState, len(known))
	}
	for i, p := range known {
		b := s.prefixes[p]
		pb := &st.Prefixes[i]
		*pb = PrefixBookState{Prefix: p, Baseline: b.baseline, HasLast: b.hasLast, Last: b.last}
		if n := len(b.cands); n > 0 {
			cands = append(cands, b.cands...)
			pb.Cands = cands[len(cands)-n : len(cands) : len(cands)]
		}
		if n := len(b.advertised); n > 0 {
			for j := range b.advertised {
				a := &b.advertised[j]
				advs = append(advs, AdvState{Peer: a.Peer, PathKey: a.pathKey(), BW: a.BW, PathLen: a.PathLen})
			}
			pb.Advertised = advs[len(advs)-n : len(advs) : len(advs)]
		}
	}

	if cfg := s.RPAConfig(); !cfg.IsEmpty() || cfg.Version != 0 {
		st.RPA = s.Program()
	}
	st.Cache = s.rpa.Cache().ExportState()
	st.FIB = s.fibTbl.ExportState()
	return st, nil
}

// NewSpeakerFromState rebuilds a speaker from a checkpoint. The clock
// function plays the same role as in NewSpeaker. The speaker starts with
// no tap attached; the owner re-attaches telemetry after restore.
//
// The speaker keeps st and builds its peer, originated and prefix maps and
// its RPA evaluator out of it on its first Touch or first read of them
// (load), so a restored speaker nothing runs on costs its struct and its FIB
// table (fib.NewFromState, itself lazy). Well-formed columns (ranks strictly
// ascending, every one below the peer count) are then adopted by reference
// behind one prefixState slab. A record ExportState wrote or Check passed is
// known to be well formed and is not read here; any other is checked
// (inPeerOrder). A record whose peers are not strictly ascending or whose
// columns are not well formed is built at once: a duplicate peer or a
// column naming a rank with no peer is an error, the peers are sorted, and
// any other column is rebuilt sorted, last write winning, in owned memory.
// Either way nothing may write to st afterwards.
func NewSpeakerFromState(st *SpeakerState, now func() int64) (*Speaker, error) {
	tbl, err := fib.NewFromState(&st.FIB)
	if err != nil {
		return nil, fmt.Errorf("bgp %s: %w", st.Cfg.ID, err)
	}
	s := newSpeaker(st.Cfg, now)
	s.drained, s.stats, s.fibTbl = st.Drained, st.Stats, tbl
	if st.ordered || inPeerOrder(st) {
		s.pending = st
		return s, nil
	}
	if err := checkSessions(st); err != nil {
		return nil, err
	}
	// A rebuilt column is no longer the state's own: the record must not be
	// repeated for this speaker (see Dirty).
	s.dirty = s.build(st, false)
	return s, nil
}

// Check refuses a record NewSpeakerFromState would refuse, its FIB's
// included, and records whether its columns can be adopted in place, so that
// no restore of it walks them again. A decoder calls it on each record it
// makes, before anyone else sees the record; ExportState's records are in
// peer order by construction.
func (st *SpeakerState) Check() error {
	if err := st.FIB.Check(); err != nil {
		return fmt.Errorf("bgp %s: %w", st.Cfg.ID, err)
	}
	if st.ordered = inPeerOrder(st); !st.ordered {
		return checkSessions(st)
	}
	return nil
}

// inPeerOrder reports whether load can adopt every column of st in place:
// the peers are strictly ascending, so their indexes are their ranks, and
// each column's ranks are strictly ascending and name a peer.
func inPeerOrder(st *SpeakerState) bool {
	for i := 1; i < len(st.Peers); i++ {
		if st.Peers[i-1].Session >= st.Peers[i].Session {
			return false
		}
	}
	n := int32(len(st.Peers))
	for i := range st.Prefixes {
		pb := &st.Prefixes[i]
		if !inOrder(n, pb.Cands, candKey) || !inOrder(n, pb.Advertised, advKey) {
			return false
		}
	}
	return true
}

// checkSessions rejects what load could not build from: a session listed
// twice among the peers, or a column entry whose rank names no peer.
func checkSessions(st *SpeakerState) error {
	known := make(map[SessionID]bool, len(st.Peers))
	for _, p := range st.Peers {
		if known[p.Session] {
			return fmt.Errorf("bgp %s: duplicate peer session %q in state", st.Cfg.ID, p.Session)
		}
		known[p.Session] = true
	}
	n := int32(len(st.Peers))
	for i := range st.Prefixes {
		pb := &st.Prefixes[i]
		for _, c := range pb.Cands {
			if c.Peer < 0 || c.Peer >= n {
				return fmt.Errorf("bgp %s: Adj-RIB-In for unknown session: rank %d of %d peers", st.Cfg.ID, c.Peer, n)
			}
		}
		for _, a := range pb.Advertised {
			if a.Peer < 0 || a.Peer >= n {
				return fmt.Errorf("bgp %s: Adj-RIB-Out for unknown session: rank %d of %d peers", st.Cfg.ID, a.Peer, n)
			}
		}
	}
	return nil
}

// load builds the speaker's peers, maps and RPA evaluator out of the
// checkpoint it was restored from, if it has not yet, and drops the record.
// Every method that reads what it builds calls it first, or is only reached
// through one that has (TestDirtyCoversEveryMutator holds both lines). It
// reads nothing of the speaker but the record, so building late builds what
// restoring would have, and it cannot fail: NewSpeakerFromState kept only a
// record in peer order.
func (s *Speaker) load() {
	if st := s.pending; st != nil {
		s.pending = nil
		s.build(st, true)
	}
}

// build makes the speaker's peers, maps and RPA evaluator out of st. With
// adopt (st passed inPeerOrder) every column is adopted by reference;
// otherwise the peers are sorted and each column that is not well formed is
// rebuilt sorted, last write winning, and build reports whether it rebuilt
// any. The caller has checked that every rank st names is a peer.
func (s *Speaker) build(st *SpeakerState, adopt bool) (rebuilt bool) {
	peers := make([]peer, len(st.Peers))
	for i, p := range st.Peers {
		peers[i] = peer{
			session: p.Session, device: p.Device, asn: p.ASN,
			linkGbps: p.LinkGbps, prepend: p.Prepend,
		}
	}
	if !adopt {
		slices.SortFunc(peers, func(a, b peer) int { return cmp.Compare(a.session, b.session) })
	}
	for i := range peers {
		peers[i].dev = devOrdinal(peers[:i], peers[i].device)
	}
	s.peers = peers
	n := int32(len(peers))

	s.originated = make(map[netip.Prefix]originInfo, len(st.Originated))
	for _, o := range st.Originated {
		s.originated[o.Prefix] = originInfo{
			communities:   o.Communities,
			origin:        o.Origin,
			bandwidthGbps: o.BandwidthGbps,
			installFIB:    o.InstallFIB,
		}
	}

	s.prefixes = make(map[netip.Prefix]*prefixState, len(st.Prefixes))
	slab := make([]prefixState, len(st.Prefixes))
	for i := range st.Prefixes {
		pb := &st.Prefixes[i]
		b := &slab[i]
		b.baseline, b.last, b.hasLast = pb.Baseline, pb.Last, pb.HasLast
		if m := len(pb.Cands); m > 0 && (adopt || inOrder(n, pb.Cands, candKey)) {
			b.cands, b.candsShared = pb.Cands[:m:m], true
		} else {
			rebuilt = rebuilt || m > 0
			for j := range pb.Cands {
				b.setCandidate(pb.Cands[j].Peer, pb.Cands[j].Attrs)
			}
		}
		if m := len(pb.Advertised); m > 0 && (adopt || inOrder(n, pb.Advertised, advKey)) {
			b.advertised, b.advShared = pb.Advertised[:m:m], true
		} else {
			rebuilt = rebuilt || m > 0
			for _, a := range pb.Advertised {
				j, found := b.findAdv(a.Peer)
				b.advertised = putEntry(b.advertised, &b.advShared, j, found, a)
			}
		}
		s.prefixes[pb.Prefix] = b
	}

	prog := st.RPA
	if prog == nil {
		prog = noRPA
	}
	s.rpa = prog.NewEvaluator()
	s.rpa.Cache().RestoreState(st.Cache)
	return rebuilt
}

// inOrder reports whether the ranks of col are strictly ascending and each
// names one of n peers.
func inOrder[T any](n int32, col []T, key func(*T) int32) bool {
	prev := int32(-1)
	for i := range col {
		k := key(&col[i])
		if k <= prev || k >= n {
			return false
		}
		prev = k
	}
	return true
}

package bgp

// Checkpoint support: SpeakerState is the complete serializable state of a
// Speaker — configuration, peers, originated prefixes, per-prefix state in
// the engine's own layout (the Adj-RIB-In and Adj-RIB-Out columns, baselines,
// last decision), the deployed RPA config with its match cache, the FIB, and
// the activity counters. NewSpeakerFromState rebuilds an equivalent speaker
// by direct state injection: unlike AddPeer/Originate/SetRPA it runs no
// decision process and emits nothing, so restoring is side-effect free and a
// restored speaker continues byte-identically to the captured one. It adopts
// the columns by reference: a SpeakerState handed to it must never be
// written again, and the speaker copies a column before its first write.

import (
	"fmt"
	"net/netip"

	"centralium/internal/core"
	"centralium/internal/fib"
)

// PeerState is the serializable form of one session's peer record.
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
	Cands      []Candidate // Adj-RIB-In column, sorted by session
	Advertised []AdvState  // Adj-RIB-Out column, sorted by session
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
}

// ExportState captures the speaker for checkpointing. It fails if the
// outbox is non-empty: the fabric drains outboxes synchronously after
// every event, so pending messages mean the caller is checkpointing
// mid-event, where no consistent cut exists. The result shares no mutable
// memory with the speaker: the columns are copied (into one allocation per
// speaker each), route AS paths and communities are immutable everywhere
// (see HandleUpdate) and travel by reference.
func (s *Speaker) ExportState() (SpeakerState, error) {
	if len(s.outbox) > 0 {
		return SpeakerState{}, fmt.Errorf("bgp %s: %d undelivered outbox messages; checkpoint only between events", s.cfg.ID, len(s.outbox))
	}
	st := SpeakerState{Cfg: s.cfg, Drained: s.drained, Stats: s.stats}

	for _, sess := range s.sessionOrder() {
		pr := s.peers[sess]
		st.Peers = append(st.Peers, PeerState{
			Session: sess, Device: pr.device, ASN: pr.asn,
			LinkGbps: pr.linkGbps, Prepend: pr.prepend,
		})
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
				advs = append(advs, AdvState{Session: a.Session, PathKey: a.pathKey(), BW: a.BW, PathLen: a.PathLen})
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
// Well-formed columns (sessions strictly ascending, every one a peer) are
// adopted by reference behind one prefixState slab; anything else is rejected
// (unknown session) or rebuilt sorted, last write winning, in owned memory.
func NewSpeakerFromState(st SpeakerState, now func() int64) (*Speaker, error) {
	s := newSpeaker(st.Cfg, now)
	s.drained = st.Drained
	s.stats = st.Stats

	s.peers = make(map[SessionID]*peer, len(st.Peers))
	peers := make([]peer, len(st.Peers))
	for i, p := range st.Peers {
		if _, dup := s.peers[p.Session]; dup {
			return nil, fmt.Errorf("bgp %s: duplicate peer session %q in state", st.Cfg.ID, p.Session)
		}
		peers[i] = peer{
			session: p.Session, device: p.Device, asn: p.ASN,
			linkGbps: p.LinkGbps, prepend: p.Prepend,
		}
		s.peers[p.Session] = &peers[i]
	}
	s.originated = make(map[netip.Prefix]originInfo, len(st.Originated))
	for _, o := range st.Originated {
		s.originated[o.Prefix] = originInfo{
			communities:   o.Communities,
			origin:        o.Origin,
			bandwidthGbps: o.BandwidthGbps,
			installFIB:    o.InstallFIB,
		}
	}

	order := s.sessionOrder()
	s.prefixes = make(map[netip.Prefix]*prefixState, len(st.Prefixes))
	slab := make([]prefixState, len(st.Prefixes))
	for i := range st.Prefixes {
		pb := &st.Prefixes[i]
		b := &slab[i]
		b.baseline, b.last, b.hasLast = pb.Baseline, pb.Last, pb.HasLast
		if n := len(pb.Cands); n > 0 && adoptable(order, n, func(j int) SessionID { return pb.Cands[j].Session }) {
			b.cands, b.candsShared = pb.Cands[:n:n], true
		} else {
			if n > 0 {
				s.dirty = true // rebuilt: no longer the state's own column
			}
			for j := range pb.Cands {
				c := &pb.Cands[j]
				if s.peers[c.Session] == nil {
					return nil, fmt.Errorf("bgp %s: Adj-RIB-In for unknown session %q", st.Cfg.ID, c.Session)
				}
				b.setCandidate(c.Session, c.Attrs)
			}
		}
		if n := len(pb.Advertised); n > 0 && adoptable(order, n, func(j int) SessionID { return pb.Advertised[j].Session }) {
			b.advertised, b.advShared = pb.Advertised[:n:n], true
		} else {
			if n > 0 {
				s.dirty = true
			}
			for _, a := range pb.Advertised {
				if s.peers[a.Session] == nil {
					return nil, fmt.Errorf("bgp %s: Adj-RIB-Out for unknown session %q", st.Cfg.ID, a.Session)
				}
				j, found := b.findAdv(a.Session)
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
	s.fibTbl = fib.NewFromState(st.FIB)
	return s, nil
}

// adoptable reports whether a column of n entries, whose j-th session is
// at(j), may be used in place: its sessions must be a subsequence of order
// (the speaker's sessions, ascending), i.e. strictly ascending and all
// known. A checkpoint's session IDs usually are the peer list's own strings,
// so most comparisons end at the pointer.
func adoptable(order []SessionID, n int, at func(int) SessionID) bool {
	j := 0
	for _, sess := range order {
		if at(j) == sess {
			if j++; j == n {
				return true
			}
		}
	}
	return false
}

package bgp

// Checkpoint support: SpeakerState is the complete serializable state of a
// Speaker — configuration, peers, Adj-RIB-In (exported per session, derived
// from the per-prefix columns), originated prefixes,
// per-prefix decision bookkeeping (Adj-RIB-Out, baselines, last decision),
// the deployed RPA config with its match cache, the FIB, and the activity
// counters. NewSpeakerFromState rebuilds an equivalent speaker by direct
// state injection: unlike AddPeer/Originate/SetRPA it runs no decision
// process and emits nothing, so restoring is side-effect free and a
// restored speaker continues byte-identically to the captured one.

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strings"

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

// AdjRIBInState holds one session's received routes, sorted by prefix.
type AdjRIBInState struct {
	Session SessionID
	Routes  []core.RouteAttrs
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

// AdvState is one Adj-RIB-Out entry: what was last advertised on a session
// for a prefix (the duplicate-suppression state).
type AdvState struct {
	Session SessionID
	PathKey string
	BW      float64
	PathLen int
}

// PrefixBookState is the per-prefix decision bookkeeping.
type PrefixBookState struct {
	Prefix     netip.Prefix
	Baseline   int
	HasLast    bool
	Last       DecisionInfo
	Advertised []AdvState // sorted by session
}

// SpeakerState is the complete serializable state of one speaker. All
// slices are sorted, so identical speakers export identical states.
type SpeakerState struct {
	Cfg     Config
	Drained bool
	Stats   Stats

	Peers      []PeerState       // sorted by session
	AdjIn      []AdjRIBInState   // one per peer session, sorted by session
	Originated []OriginatedState // sorted by prefix
	Prefixes   []PrefixBookState // sorted by prefix

	// RPA is the deployed core.Config as JSON; empty means no RPA.
	RPA   []byte
	Cache core.CacheState
	FIB   fib.TableState
}

// ExportState captures the speaker for checkpointing. It fails if the
// outbox is non-empty: the fabric drains outboxes synchronously after
// every event, so pending messages mean the caller is checkpointing
// mid-event, where no consistent cut exists. The result shares no mutable
// memory with the speaker: route AS paths and communities are immutable
// everywhere (see HandleUpdate) and travel by reference.
func (s *Speaker) ExportState() (SpeakerState, error) {
	if len(s.outbox) > 0 {
		return SpeakerState{}, fmt.Errorf("bgp %s: %d undelivered outbox messages; checkpoint only between events", s.cfg.ID, len(s.outbox))
	}
	st := SpeakerState{Cfg: s.cfg, Drained: s.drained, Stats: s.stats}

	sessions := s.sessionOrder()
	ribOf := make(map[SessionID]int, len(sessions))
	if len(sessions) > 0 {
		st.AdjIn = make([]AdjRIBInState, len(sessions))
	}
	for i, sess := range sessions {
		pr := s.peers[sess]
		st.Peers = append(st.Peers, PeerState{
			Session: sess, Device: pr.device, ASN: pr.asn,
			LinkGbps: pr.linkGbps, Prepend: pr.prepend,
		})
		st.AdjIn[i].Session = sess
		ribOf[sess] = i
	}

	known := make([]netip.Prefix, 0, len(s.prefixes))
	for p := range s.prefixes {
		known = append(known, p)
	}
	sortPrefixes(known)
	// The per-session Adj-RIB-In view, derived from the columns: walking
	// prefixes in sorted order leaves every session's routes sorted.
	for _, p := range known {
		for _, c := range s.prefixes[p].cands {
			rib := &st.AdjIn[ribOf[c.session]]
			rib.Routes = append(rib.Routes, c.attrs)
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

	for _, p := range known {
		b := s.prefixes[p]
		pb := PrefixBookState{Prefix: p, Baseline: b.baseline, HasLast: b.hasLast, Last: b.last}
		if len(b.advertised) > 0 {
			pb.Advertised = make([]AdvState, 0, len(b.advertised))
			for id, a := range b.advertised {
				pb.Advertised = append(pb.Advertised, AdvState{
					Session: id, PathKey: a.pathKey(), BW: a.bw, PathLen: a.pathLen,
				})
			}
			slices.SortFunc(pb.Advertised, func(x, y AdvState) int {
				return strings.Compare(string(x.Session), string(y.Session))
			})
		}
		st.Prefixes = append(st.Prefixes, pb)
	}

	if !s.rpaCfg.IsEmpty() || s.rpaCfg.Version != 0 {
		data, err := json.Marshal(s.rpaCfg)
		if err != nil {
			return SpeakerState{}, fmt.Errorf("bgp %s: marshal RPA config: %w", s.cfg.ID, err)
		}
		st.RPA = data
	}
	st.Cache = s.rpa.Cache().ExportState()
	st.FIB = s.fibTbl.ExportState()
	return st, nil
}

// NewSpeakerFromState rebuilds a speaker from a checkpoint. The clock
// function plays the same role as in NewSpeaker. The speaker starts with
// no tap attached; the owner re-attaches telemetry after restore.
func NewSpeakerFromState(st SpeakerState, now func() int64) (*Speaker, error) {
	s := NewSpeaker(st.Cfg, now)
	s.drained = st.Drained
	s.stats = st.Stats

	for _, p := range st.Peers {
		if _, dup := s.peers[p.Session]; dup {
			return nil, fmt.Errorf("bgp %s: duplicate peer session %q in state", st.Cfg.ID, p.Session)
		}
		s.peers[p.Session] = &peer{
			session: p.Session, device: p.Device, asn: p.ASN,
			linkGbps: p.LinkGbps, prepend: p.Prepend,
		}
	}
	for _, o := range st.Originated {
		s.originated[o.Prefix] = originInfo{
			communities:   o.Communities,
			origin:        o.Origin,
			bandwidthGbps: o.BandwidthGbps,
			installFIB:    o.InstallFIB,
		}
	}
	for _, pb := range st.Prefixes {
		b := &prefixState{
			advertised: make(map[SessionID]adv, len(pb.Advertised)),
			baseline:   pb.Baseline,
			last:       pb.Last,
			hasLast:    pb.HasLast,
		}
		for _, a := range pb.Advertised {
			if s.peers[a.Session] == nil {
				return nil, fmt.Errorf("bgp %s: Adj-RIB-Out for unknown session %q", st.Cfg.ID, a.Session)
			}
			b.advertised[a.Session] = adv{key: a.PathKey, bw: a.BW, pathLen: a.PathLen}
		}
		s.prefixes[pb.Prefix] = b
	}
	if err := s.restoreAdjIn(st.AdjIn); err != nil {
		return nil, err
	}

	if len(st.RPA) > 0 {
		var cfg core.Config
		if err := json.Unmarshal(st.RPA, &cfg); err != nil {
			return nil, fmt.Errorf("bgp %s: unmarshal RPA config: %w", st.Cfg.ID, err)
		}
		ev, err := core.NewEvaluator(&cfg)
		if err != nil {
			return nil, fmt.Errorf("bgp %s: recompile RPA config: %w", st.Cfg.ID, err)
		}
		s.rpa = ev
		s.rpaCfg = &cfg
	}
	s.rpa.Cache().RestoreState(st.Cache)
	s.fibTbl = fib.NewFromState(st.FIB)
	return s, nil
}

// restoreAdjIn rebuilds the per-prefix columns from the per-session
// checkpoint form. All columns are carved, at their exact size, out of one
// allocation (a capped sub-slice each, so a column that later grows moves
// out instead of running into its neighbour). Well-formed state lists
// sessions in sorted order, which makes every insert an append; anything
// else still ends up sorted and duplicate-free, last write winning.
func (s *Speaker) restoreAdjIn(ribs []AdjRIBInState) error {
	total := 0
	for i := range ribs {
		if s.peers[ribs[i].Session] == nil {
			return fmt.Errorf("bgp %s: Adj-RIB-In for unknown session %q", s.cfg.ID, ribs[i].Session)
		}
		total += len(ribs[i].Routes)
	}
	if total == 0 {
		return nil
	}
	// Count each column's routes in its (still empty) slice length, then
	// carve.
	backing := make([]candidate, total)
	for i := range ribs {
		for j := range ribs[i].Routes {
			st := s.state(ribs[i].Routes[j].Prefix)
			st.cands = backing[:len(st.cands)+1]
		}
	}
	for _, st := range s.prefixes {
		if n := len(st.cands); n > 0 {
			st.cands = backing[:0:n]
			backing = backing[n:]
		}
	}
	for i := range ribs {
		for j := range ribs[i].Routes {
			r := &ribs[i].Routes[j]
			s.prefixes[r.Prefix].setCandidate(ribs[i].Session, *r)
		}
	}
	return nil
}

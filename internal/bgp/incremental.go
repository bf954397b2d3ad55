package bgp

// The advertise memo and the oracle.
//
// There is one decision driver: recomputeOne runs the Figure 6 pipeline for
// a prefix, and every bulk trigger (session up, drain/undrain, prepend
// change, RPA deploy) runs it for every known prefix through recomputeAll.
// Most of those runs change nothing, and two places recognise that cheaply:
// fib.Table.Install compares the incoming hop set against the prefix's live
// group before it renders a key, and advertise consults a per-prefix memo of
// its last completed loop (see prefixState) before it walks the sessions.
//
// "Full recompute" — Speaker.SetFullRecompute, fabric.Options.FullRecompute,
// CENTRALIUM_FULL_RECOMPUTE — turns the advertise memo off, and nothing
// else: the one mode-dependent branch is in advertise. That speaker is the
// oracle the differential suites (here, internal/fabric, internal/snapshot)
// and the benchmark compare against, byte for byte, on everything
// observable. The memo is derived state and never serialized: snapshots are
// identical across modes, and a restored speaker starts with it empty.

import (
	"os"
	"slices"

	"centralium/internal/core"
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
	// advertisement memo (provably suppressed on every session).
	AdvertiseMemoHits int

	// SkippedRecomputes and FIBMemoHits are always zero: the mechanisms
	// they counted are gone. They stay declared only because
	// bench/w_library.go (frozen outside a benchmark PR) reads them; they go
	// with the bgp.skipped_recompute_frac and bgp.fib_memo_hits_per_op
	// metrics it feeds.
	SkippedRecomputes int
	FIBMemoHits       int
}

// IncrementalStats returns the engine's work-avoidance counters.
func (s *Speaker) IncrementalStats() IncrementalStats { return s.incr }

// FullRecompute reports whether the speaker is the oracle: advertise memo off.
func (s *Speaker) FullRecompute() bool { return s.fullRecompute }

// SetFullRecompute turns the advertise memo off (true, the oracle) or on.
// The switch is safe at any quiescent point: both modes keep the memo's
// record current, the oracle just never trusts it.
func (s *Speaker) SetFullRecompute(on bool) { s.fullRecompute = on }

// sessionOrder returns the sessions sorted by ID. The slice is cached
// (invalidated on session add/remove) because the sort sits on the
// per-update hot path. Callers must not mutate the result.
func (s *Speaker) sessionOrder() []SessionID {
	if s.sessOrder == nil {
		out := make([]SessionID, 0, len(s.peers))
		for sess := range s.peers {
			out = append(out, sess)
		}
		slices.Sort(out)
		s.sessOrder = out
	}
	return s.sessOrder
}

// localHops is the next-hop set for locally originated prefixes.
var localHops = []fib.NextHop{{ID: LocalNextHop, Weight: 1}}

// distinctDevicesOf counts distinct next-hop devices among the indexed
// candidates (all candidates when idx is nil).
func (s *Speaker) distinctDevicesOf(cands []Candidate, idx []int) int {
	if s.distinctScratch == nil {
		s.distinctScratch = make(map[string]struct{}, 16)
	}
	m := s.distinctScratch
	clear(m)
	if idx == nil {
		for i := range cands {
			m[cands[i].Attrs.NextHop] = struct{}{}
		}
	} else {
		for _, i := range idx {
			m[cands[i].Attrs.NextHop] = struct{}{}
		}
	}
	return len(m)
}

// equal reports whether r is, to the advertise step, the route recorded.
// Egress RouteFilters read only prefix and peer name, so equality here plus
// an unchanged advertisement epoch proves a repeat advertise call is
// suppressed on every session.
func (a *advRoute) equal(r *core.RouteAttrs) bool {
	return a.origin == r.Origin && slices.Equal(a.path, r.ASPath) && slices.Equal(a.comms, r.Communities)
}

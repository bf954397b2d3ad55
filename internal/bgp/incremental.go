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
func (a *advRoute) equal(r *core.RouteAttrs) bool {
	return a.origin == r.Origin && slices.Equal(a.path, r.ASPath) && slices.Equal(a.comms, r.Communities)
}

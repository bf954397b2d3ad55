package bgp

// Incremental decision-process recomputation.
//
// recomputeAll re-runs the Figure 6 pipeline for every known prefix on
// every bulk trigger (session up, drain/undrain, prepend change, RPA
// deploy), which is the dominant cost per fabric step at the 1k-device
// scale. Most of those per-prefix runs are provable no-ops: the trigger
// cannot have changed the prefix's candidates, and the previous run
// finished in a steady state (no messages, no tap emissions, no FIB or
// decision change, no RPA cache activity). The incremental engine keeps a
// per-prefix dependency profile that records whether the last run was such
// a steady no-op, and on each bulk trigger walks the same sorted prefix
// order as recomputeAll, re-running only prefixes that are not steady or
// that a trigger-specific dirty predicate marks as affected. Every skipped
// prefix is compensated with the exact externally visible residue a
// full-recompute no-op run leaves behind (the Recomputes counter, the
// native-decision and min-next-hop counters, and the FIB write counter via
// Table.Touch), so tap streams, outbox messages, FIB state, speaker
// statistics, and snapshot fingerprints stay byte-identical to the oracle.
//
// The oracle is the full recompute, kept behind Speaker.SetFullRecompute /
// fabric.Options.FullRecompute: every bulk trigger re-runs every prefix, and
// neither memo is consulted. That is the whole difference — which prefixes
// re-run and whether a run may be cut short. How a run stores and allocates
// is shared: both engines read the same Adj-RIB-In columns in place, use
// the same scratch buffers and session-order cache, and build the same
// shared advertisement content. The differential conformance suite
// (internal/fabric, internal/snapshot) sweeps seeds × scenarios × {full,
// incremental} and asserts byte identity of everything observable.
//
// Dirty predicates, per trigger (checked only for steady prefixes; a
// recompute is always sound, so predicates only need to be conservative
// supersets of "this trigger can change the prefix's outcome"):
//
//   - session up (AddPeer): prefixes whose last run reached the advertise
//     step while undrained — only those replay an advertisement onto the
//     new session. Candidates cannot change (the session has sent nothing).
//   - session down (RemovePeer): keeps its existing targeted behavior —
//     only prefixes with a path via that peer recompute.
//   - drain: prefixes currently advertised somewhere (they must withdraw).
//   - undrain: prefixes whose last run reached the advertise step (they
//     must re-advertise).
//   - prepend change: prefixes currently advertised somewhere.
//   - RPA deploy (SetRPA): prefixes whose representative routes (the first
//     candidate, and the first selected route) match a PathSelection or
//     RouteAttribute statement of either the outgoing or incoming config,
//     plus — when either config carries RouteFilters — every prefix that
//     reaches the advertise step. Prefixes whose last run probed the RPA
//     match cache or emitted an RPA hit are never steady in the first
//     place, so every previously RPA-governed prefix recomputes too.
//
// RouteAttribute expiry needs no special case: expiry is monotone (a
// statement only ever stops applying, never starts), and a run where a
// statement applies always emits an RPA hit, which marks the prefix
// non-steady — so a steady profile can never go stale by clock advance.
//
// Derived state (profiles, memos, the representative routes, the shared
// advertisement content behind each Adj-RIB-Out key) is never serialized:
// SpeakerState is unchanged, snapshots are byte-identical across modes, and
// a restored speaker rebuilds it lazily as it recomputes
// (rebuild-on-restore).

import (
	"net/netip"
	"os"
	"slices"
	"sync/atomic"

	"centralium/internal/core"
	"centralium/internal/fib"
	"centralium/internal/telemetry"
)

// defaultFullRecompute is the fleet-wide default decision-engine mode.
// False (the default) selects the incremental engine; the
// CENTRALIUM_FULL_RECOMPUTE environment variable or SetDefaultFullRecompute
// flips whole test suites onto the oracle without code changes. The read
// happens in init, outside Go's test cache key: pass -count=1 when pinning
// the oracle.
var defaultFullRecompute atomic.Bool

func init() {
	switch os.Getenv("CENTRALIUM_FULL_RECOMPUTE") {
	case "1", "true":
		defaultFullRecompute.Store(true)
	}
}

// SetDefaultFullRecompute sets the decision-engine mode used by speakers
// constructed afterwards and returns the previous default. It does not
// affect existing speakers.
func SetDefaultFullRecompute(on bool) bool { return defaultFullRecompute.Swap(on) }

// DefaultFullRecompute reports the fleet default decision-engine mode.
func DefaultFullRecompute() bool { return defaultFullRecompute.Load() }

// IncrementalStats counts the incremental engine's work avoidance. The
// counters are diagnostic only — they are not part of SpeakerState, so
// snapshots stay byte-identical across engine modes.
type IncrementalStats struct {
	// SkippedRecomputes counts bulk-trigger per-prefix runs replaced by
	// profile-based compensation.
	SkippedRecomputes int
	// AdvertiseMemoHits counts advertise calls satisfied by the
	// advertisement memo (provably suppressed on every session).
	AdvertiseMemoHits int
	// FIBMemoHits counts FIB installs satisfied by the next-hop memo
	// (same hop set as the live entry, bookkeeping replayed via Touch).
	FIBMemoHits int
}

// IncrementalStats returns the engine's work-avoidance counters.
func (s *Speaker) IncrementalStats() IncrementalStats { return s.incr }

// FullRecompute reports whether the speaker runs the full-recompute oracle.
func (s *Speaker) FullRecompute() bool { return s.fullRecompute }

// SetFullRecompute switches the decision engine between the
// full-recompute oracle (true) and the incremental engine (false). The
// switch is safe at any quiescent point: entering incremental mode
// invalidates all derived state, because the oracle does not maintain it.
func (s *Speaker) SetFullRecompute(on bool) {
	if s.fullRecompute == on {
		return
	}
	s.fullRecompute = on
	if !on {
		s.invalidateDerived()
	}
}

// invalidateDerived drops every profile and memo. Correctness never
// depends on derived state being present — only on present state being
// accurate — so this is the safe reset after any period where the oracle
// ran without maintaining it.
func (s *Speaker) invalidateDerived() {
	s.advEpoch++
	for _, st := range s.prefixes {
		st.prof = evalProfile{}
		st.advOK = false
		st.fibOK = false
		st.fibHops = nil
	}
}

// evalProfile records what the last tracked decision run did, to prove a
// future re-run with unchanged inputs would be a no-op.
type evalProfile struct {
	// valid guards zero values (no tracked run yet / invalidated).
	valid bool
	// changed is true when the run altered any decision output: FIB entry
	// key, warm flag, baseline high-water, or the recorded DecisionInfo.
	changed bool
	// emitted is true when the run produced a per-run tap emission that is
	// not implied by a change (RPA hits, warm-FIB rewrites).
	emitted bool
	// sent is true when the run appended outbox messages.
	sent bool
	// usedCache is true when the run moved the RPA match-cache counters;
	// such runs must re-run so cache state and counters accrue naturally.
	usedCache bool
	// native, mnhWd, fibWrites are the run's counter residue, replayed on
	// skip: Stats.NativeDecisions, Stats.MnhWithdrawals, and FIB writes.
	native    int
	mnhWd     int
	fibWrites int
}

// steady reports that re-running the pipeline with unchanged inputs is a
// no-op up to the counter residue replayed by skipRecompute.
func (pr *evalProfile) steady() bool {
	return pr.valid && !pr.changed && !pr.emitted && !pr.sent && !pr.usedCache
}

// skipRecompute replays the externally visible residue of a steady no-op
// run without running the pipeline, keeping counters and FIB bookkeeping
// byte-identical to the full-recompute oracle.
func (s *Speaker) skipRecompute(p netip.Prefix, st *prefixState) {
	s.stats.Recomputes++
	s.stats.NativeDecisions += st.prof.native
	s.stats.MnhWithdrawals += st.prof.mnhWd
	for i := 0; i < st.prof.fibWrites; i++ {
		s.fibTbl.Touch(p)
	}
	s.incr.SkippedRecomputes++
}

// recomputeDirty is the incremental engine's bulk driver: it walks the
// same sorted prefix order as recomputeAll (order is part of the
// determinism contract — outbox order drives jitter draws), re-running
// non-steady or dirty prefixes and compensating the rest.
func (s *Speaker) recomputeDirty(dirty func(p netip.Prefix, st *prefixState) bool) {
	for _, p := range s.knownPrefixes() {
		st := s.prefixes[p]
		if st == nil || !st.prof.steady() || dirty(p, st) {
			s.recompute(p)
		} else {
			s.skipRecompute(p, st)
		}
	}
}

// recomputeTracked wraps one pipeline run with profile capture. It also
// owns the best-path tap emission, in the same position the oracle emits
// it (after the run, keyed on the canonical FIB group key change).
func (s *Speaker) recomputeTracked(p netip.Prefix) {
	st := s.state(p)
	writesBefore := s.fibTbl.Stats().Writes
	hitsBefore, missesBefore := s.rpa.Cache().Stats()
	outBefore := len(s.outbox)
	statsBefore := s.stats
	keyBefore := s.fibTbl.EntryKey(p)
	warmBefore := s.fibTbl.IsWarm(p)
	baseBefore := st.baseline
	lastBefore, hadLast := st.last, st.hasLast
	s.runEmits = 0

	s.recomputeOne(p)

	keyAfter := s.fibTbl.EntryKey(p)
	if s.tap != nil && keyBefore != keyAfter {
		s.tap.Emit(telemetry.Event{
			Kind:     telemetry.KindBestPath,
			Time:     s.now(),
			Device:   s.cfg.ID,
			Prefix:   p,
			Withdraw: keyAfter == "",
		})
	}

	hitsAfter, missesAfter := s.rpa.Cache().Stats()
	st.prof = evalProfile{
		valid: true,
		changed: keyBefore != keyAfter ||
			warmBefore != s.fibTbl.IsWarm(p) ||
			baseBefore != st.baseline ||
			!hadLast || lastBefore != st.last,
		emitted:   s.runEmits > 0,
		sent:      len(s.outbox) != outBefore,
		usedCache: hitsAfter != hitsBefore || missesAfter != missesBefore,
		native:    s.stats.NativeDecisions - statsBefore.NativeDecisions,
		mnhWd:     s.stats.MnhWithdrawals - statsBefore.MnhWithdrawals,
		fibWrites: s.fibTbl.Stats().Writes - writesBefore,
	}
}

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

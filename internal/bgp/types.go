// Package bgp implements the per-switch BGP-4 speaker used by the emulated
// fabric: Adj-RIB-In, the decision process, ECMP/WCMP multipath, policy
// hooks, and the RPA integration points of the paper's Figure 6. The
// speaker is a deterministic state machine — it never talks to the network
// itself; the fabric engine feeds it events and drains its outbox.
//
// Inside the speaker a session is its rank, its position among the
// speaker's peers sorted by session ID: the Adj-RIB-In and Adj-RIB-Out
// columns, the advertise loop and the decision read int32 ranks and device
// ordinals. Ranks sort as the IDs do, so no order moves with them. Session
// strings appear only at the edges: HandleUpdate resolves its argument once,
// and Peers, AdjRIBOut, FIB next-hop IDs, OutMsg, telemetry and the
// checkpoint codec render them from the peer record.
package bgp

import (
	"net/netip"
	"slices"

	"centralium/internal/core"
)

// SessionID names one BGP session. Parallel sessions between the same pair
// of devices have distinct IDs (Figure 5 relies on this).
type SessionID string

// Update is one emulation-level BGP UPDATE for a single prefix. (The wire
// codec in bgp/wire carries the same information in RFC 4271 framing; the
// event engine uses this struct form directly.)
type Update struct {
	Prefix   netip.Prefix
	Withdraw bool

	ASPath      []uint32
	Communities []string
	Origin      core.Origin
	MED         uint32

	// LinkBandwidthGbps mirrors the link-bandwidth extended community; the
	// sender sets it in distributed-WCMP mode.
	LinkBandwidthGbps float64
}

// WCMPMode selects the speaker's native traffic-distribution algorithm.
type WCMPMode int

// WCMP modes.
const (
	// WCMPOff hashes equally over the multipath set (ECMP).
	WCMPOff WCMPMode = iota
	// WCMPDistributed derives weights from peer-advertised link bandwidth
	// (Section 2's distributed WCMP) and re-advertises aggregate capacity
	// downstream. This is the mode that exhibits the Section 3.4 transient
	// state explosion.
	WCMPDistributed
)

// AdvertiseMode selects which of the selected paths an RPA-selecting
// speaker advertises to peers.
type AdvertiseMode int

// Advertisement modes.
const (
	// AdvertiseLeastFavorable advertises the path with the least favorable
	// attributes (longest AS path) among those selected for forwarding —
	// the loop-avoidance rule of Section 5.3.1.
	AdvertiseLeastFavorable AdvertiseMode = iota
	// AdvertiseBest advertises the best selected path. This is the naive
	// rule that Figure 9 shows installs a persistent routing loop; kept as
	// an ablation knob.
	AdvertiseBest
)

// Config parameterizes one speaker.
type Config struct {
	ID  string // device name
	ASN uint32

	// Multipath enables ECMP across equally-preferred paths; all fabric
	// switches run with it on, as in production.
	Multipath bool

	// WCMP selects the native weight derivation.
	WCMP WCMPMode

	// Advertise selects the RPA advertisement rule.
	Advertise AdvertiseMode

	// FIBGroupLimit is the hardware next-hop-group capacity.
	FIBGroupLimit int

	// VendorMinECMP, when > 0, emulates the vendor minimum-ECMP knob the
	// paper cites as the naive fix for the last-router problem (§3.3): the
	// speaker withdraws a route when its multipath set falls below the
	// threshold. Unlike the RPA equivalent it applies to all prefixes and
	// never keeps the FIB warm.
	VendorMinECMP int

	// LocalPref assigned to received routes (default 100). Every route a
	// speaker holds was received under it, so the Adj-RIB-In does not store
	// it (see Route).
	LocalPref uint32
}

// EffectiveLocalPref is the LocalPref a speaker built from c assigns every
// route it receives: c.LocalPref, or 100 when that is zero.
func (c *Config) EffectiveLocalPref() uint32 {
	if c.LocalPref == 0 {
		return 100
	}
	return c.LocalPref
}

// Stats counts speaker activity for experiments and debugging.
type Stats struct {
	UpdatesReceived int
	UpdatesSent     int
	WithdrawalsSent int
	LoopRejects     int // updates dropped by AS-path loop prevention
	FirstASRejects  int // updates dropped by eBGP enforce-first-AS
	FilterRejects   int // updates dropped by ingress policy / RouteFilter RPA
	Recomputes      int // per-prefix decision runs
	RPASelections   int // decisions resolved by a Path Selection RPA set
	NativeDecisions int // decisions resolved by native selection
	MnhWithdrawals  int // withdrawals forced by min-next-hop thresholds
	WeightOverrides int // decisions whose weights came from a Route Attribute RPA
}

// peer is the speaker-side state of one session. A speaker keeps its peers
// in a slice sorted by session ID, and inside the package a session is its
// rank: its index there.
type peer struct {
	session SessionID
	device  string
	// dev numbers the neighbour device within the speaker: parallel sessions
	// to one device share it, so split horizon and the distinct-next-hop
	// count compare ints. Ordinals index devStamps.seen.
	dev      int32
	asn      uint32
	linkGbps float64
	prepend  int // export AS-path prepend toward this peer (maintenance policy)
}

// originInfo describes a locally originated prefix.
type originInfo struct {
	communities []string
	origin      core.Origin
	// bandwidthGbps seeds the link-bandwidth advertisement in WCMP mode.
	bandwidthGbps float64
	// installFIB controls whether a local-delivery FIB entry is installed
	// (true for real origins; false for advertised-on-behalf aggregates).
	installFIB bool
}

// advContent is the immutable content of one advertisement — the AS path
// (own prepends included), communities and origin. advertise builds one per
// call and per distinct prepend; every session's adv entry and every OutMsg
// of that call point at it, and the receiving speakers store the same
// slices in their Adj-RIB-In. Nothing may write through path or comms.
type advContent struct {
	path   []uint32
	comms  []string
	origin core.Origin
	// key caches the rendered PathKey; only checkpoints, AdjRIBOut and the
	// comparison against snapshot-restored entries ever ask for it.
	key string
	// inline backs path when it fits, so a content is one allocation.
	inline [8]uint32
}

// builtContent is one content an advertise call built, and whether an
// Adj-RIB-Out entry stored it (only a stored content reaches an OutMsg).
type builtContent struct {
	c      *advContent
	stored bool
}

// pathKey renders (once) the canonical advertisement identity.
func (c *advContent) pathKey() string {
	if c.key == "" {
		c.key = advKeyOf(c.path, c.comms, c.origin)
	}
	return c.key
}

// sameContent reports whether two advertisements are the same for duplicate
// suppression, i.e. exactly when their PathKeys are equal, decided
// structurally. Only a community list that differs elementwise falls back
// to the rendered keys (the key is order-insensitive in communities).
func sameContent(a, b *advContent) bool {
	if a == b {
		return true
	}
	if a.origin != b.origin || !slices.Equal(a.path, b.path) {
		return false
	}
	return slices.Equal(a.comms, b.comms) || a.pathKey() == b.pathKey()
}

// AdvState is one Adj-RIB-Out entry: what was last advertised on a session
// for a prefix, used to suppress duplicate updates. It is the engine's
// column entry and the checkpoint's: at rest content is nil and PathKey
// rendered; a live entry carries the content and renders the key on demand.
// Peer is the session's rank, its index in the speaker's peers sorted by
// session ID (SpeakerState.Peers as ExportState writes it).
type AdvState struct {
	Peer    int32
	PathKey string
	BW      float64
	// PathLen is the advertised AS-path length including this speaker's own
	// prepends; the invariant checkers compare it against the decision's
	// selected-path lengths (§5.3.1 consistency).
	PathLen int

	// content is nil for an entry that came out of a checkpoint, which
	// carries only the rendered key; the next advertise call on the prefix
	// compares by key and upgrades the entry.
	content *advContent
}

// pathKey returns the entry's canonical advertisement identity.
func (a *AdvState) pathKey() string {
	if a.content != nil {
		return a.content.pathKey()
	}
	return a.PathKey
}

// matches reports whether the entry already carries content c at bandwidth
// bw, so re-sending would be a duplicate.
func (a *AdvState) matches(c *advContent, bw float64) bool {
	if a.BW != bw {
		return false
	}
	if a.content != nil {
		return sameContent(a.content, c)
	}
	return a.PathKey == c.pathKey()
}

// Route is what a peer sends for a prefix and nothing more. The rest of a
// core.RouteAttrs is implied by where the route is kept: the prefix by its
// column, the LocalPref by the speaker's Config, the next hop and the peer by
// the session's device. Speaker.routeAttrs renders the whole route from
// those where an RPA statement can read it, and the checkpoint codec renders
// the same fields on the wire.
type Route struct {
	ASPath            []uint32
	Communities       []string
	LinkBandwidthGbps float64
	MED               uint32
	Origin            core.Origin
}

// Candidate pairs a received route with the session it arrived on: one entry
// of a prefix's Adj-RIB-In column, in the engine and in a checkpoint alike.
// Peer is the session's rank, as in AdvState.
type Candidate struct {
	Attrs Route
	Peer  int32
}

// prefixState is per-prefix bookkeeping.
type prefixState struct {
	// cands is the prefix's column of the Adj-RIB-In: the routes received
	// for it, one per session, sorted by rank — exactly what the decision
	// process reads, so gather hands it out in place. It is the only
	// Adj-RIB-In store; the per-session view (ExportState, RemovePeer) is
	// derived from it.
	cands []Candidate

	// advertised is the prefix's column of the Adj-RIB-Out: the last
	// advertisement per session, sorted by rank.
	advertised []AdvState

	// candsShared and advShared mark a column adopted by reference from a
	// checkpoint: the snapshot and every sibling fork read the same memory,
	// so the first in-place write copies it (owned), and its
	// capacity is clipped to its length so no append can reach it either.
	candsShared, advShared bool

	// baseline is the high-water count of distinct candidate next-hop
	// devices, the denominator for percentage MinNextHop thresholds.
	baseline int
	// last records the outcome of the most recent decision run; hasLast
	// guards against reading a zero value before the first run.
	last    DecisionInfo
	hasLast bool

	// Advertisement memo: the inputs of the last completed advertise loop.
	// A repeat call with equal inputs under the same advertisement epoch is
	// provably suppressed on every session, so the loop (and its per-session
	// path builds and duplicate-suppression keys) is skipped entirely.
	// Invalidated by any withdrawal and by every epoch bump. Derived state:
	// never serialized, so SpeakerState — and every snapshot fingerprint — is
	// the same whether or not the speaker trusts it, and a restored speaker
	// starts without one.
	advOK    bool
	advFrom  int32 // rank of the source session, -1 for a local origin
	advEpoch uint64
	advBW    float64
	advRoute advRoute
}

// advRoute is what the advertise step reads of the route it is handed,
// besides the prefix; the slices are the route's own (routes are immutable).
type advRoute struct {
	origin core.Origin
	path   []uint32
	comms  []string
}

// DecisionInfo snapshots the outcome of the last decision-process run for
// one prefix, for external invariant checking (the chaos harness) and the
// Section 7.2 debug tooling.
type DecisionInfo struct {
	// ViaRPA is true when a PathSelection RPA set governed the selection
	// (false for native selection, even under an RPA's native constraint).
	ViaRPA bool
	// MatchedSet names the winning path set when ViaRPA.
	MatchedSet string
	// Originated is true for locally originated prefixes (no selection ran).
	Originated bool
	// SelectedPaths is the number of routes chosen for forwarding.
	SelectedPaths int
	// DistinctNextHops is the number of distinct next-hop devices among the
	// selected routes.
	DistinctNextHops int
	// MnhRequired is the effective minimum-next-hop requirement that applied
	// (RPA BgpNativeMinNextHop or the vendor knob); zero when unconstrained.
	MnhRequired int
	// KeepWarmOnViolation mirrors KeepFibWarmIfMnhViolated for the prefix.
	KeepWarmOnViolation bool
	// MnhWithdrawn is true when the min-next-hop constraint forced a
	// withdrawal on this run.
	MnhWithdrawn bool
	// Withdrawn is true when the prefix was withdrawn from all peers for any
	// reason (no candidates, empty selection, or MnhWithdrawn).
	Withdrawn bool
	// AdvertisedPathLen is the AS-path length of the route chosen for
	// advertisement, before this speaker's own prepend (-1 when withdrawn).
	AdvertisedPathLen int
	// MaxSelectedPathLen is the longest AS path among the selected routes
	// (-1 when nothing was selected). Under AdvertiseLeastFavorable these
	// two must agree.
	MaxSelectedPathLen int
	// WeightMode records how forwarding weights were assigned: "rpa" (Route
	// Attribute override), "wcmp" (distributed bandwidth), or "ecmp".
	WeightMode string
}

// AdvertisedRoute is one Adj-RIB-Out entry: what this speaker last sent on
// a session for a prefix.
type AdvertisedRoute struct {
	// PathLen is the advertised AS-path length including own prepends.
	PathLen int
	// PathKey is the canonical advertisement identity (path + communities +
	// origin), matching the duplicate-suppression key.
	PathKey string
}

// OutMsg is one message the speaker wants delivered to the far end of a
// session. The engine drains these via TakeOutbox.
type OutMsg struct {
	Session SessionID
	Update  Update
}

// The Adj-RIB-In and Adj-RIB-Out columns are both sorted by rank; candKey
// and advKey read an entry's rank for the helpers they share.
func candKey(c *Candidate) int32 { return c.Peer }
func advKey(a *AdvState) int32   { return a.Peer }

// seek returns the column position of rank k, or where it would be
// inserted. It is kept small enough to inline, which turns key into a field
// read, and it compares ints: no session string is read on the way.
func seek[T any](col []T, key func(*T) int32, k int32) int {
	lo, hi := 0, len(col)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key(&col[mid]) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// owned returns col writable in place: itself or, if it is still shared
// with a checkpoint, a copy with room for grow more entries.
func owned[T any](col []T, shared *bool, grow int) []T {
	if *shared {
		col = append(make([]T, 0, len(col)+grow), col...)
		*shared = false
	}
	return col
}

// putEntry writes e at the position seek returned for its session: over the
// entry found there, or inserted.
func putEntry[T any](col []T, shared *bool, i int, found bool, e T) []T {
	if found {
		col = owned(col, shared, 0)
		col[i] = e
		return col
	}
	return slices.Insert(owned(col, shared, 1), i, e)
}

// findCandidate returns the column position of rank k's route and whether
// there is one.
func (st *prefixState) findCandidate(k int32) (int, bool) {
	i := seek(st.cands, candKey, k)
	return i, i < len(st.cands) && st.cands[i].Peer == k
}

// setCandidate writes the route received on rank k into the column, at the
// position findCandidate returned for k.
func (st *prefixState) setCandidate(i int, found bool, k int32, r Route) {
	st.cands = putEntry(st.cands, &st.candsShared, i, found, Candidate{Attrs: r, Peer: k})
}

// dropCandidate removes the route at column position i, where findCandidate
// found one.
func (st *prefixState) dropCandidate(i int) {
	st.cands = slices.Delete(owned(st.cands, &st.candsShared, 0), i, i+1)
}

// findAdv and dropAdv are the same over the Adj-RIB-Out column.
func (st *prefixState) findAdv(k int32) (int, bool) {
	i := seek(st.advertised, advKey, k)
	return i, i < len(st.advertised) && st.advertised[i].Peer == k
}

func (st *prefixState) dropAdv(k int32) bool {
	i, found := st.findAdv(k)
	if found {
		st.advertised = slices.Delete(owned(st.advertised, &st.advShared, 0), i, i+1)
	}
	return found
}

// renumber shifts every rank at or above k by delta: (k, +1) when a peer is
// inserted at rank k, (k+1, -1) once the entries of a removed rank k are
// dropped. The shift is monotone, so both columns stay sorted; a shared
// column is copied before it is written.
func (st *prefixState) renumber(k, delta int32) {
	if n := len(st.cands); n > 0 && st.cands[n-1].Peer >= k {
		st.cands = owned(st.cands, &st.candsShared, 0)
		for i := seek(st.cands, candKey, k); i < n; i++ {
			st.cands[i].Peer += delta
		}
	}
	if n := len(st.advertised); n > 0 && st.advertised[n-1].Peer >= k {
		st.advertised = owned(st.advertised, &st.advShared, 0)
		for i := seek(st.advertised, advKey, k); i < n; i++ {
			st.advertised[i].Peer += delta
		}
	}
}

package snapshot

// The wire format: a 4-byte magic, a uvarint format version, then tagged
// sections, each a tag byte plus a uvarint payload length plus the
// payload. Sections self-describe their extent, so a decoder skips tags it
// does not know — a v1 reader survives a v1 file with v1.1 extras — while
// integers travel as varints and strings/byte-blobs as length-prefixed
// bytes. The reader is allocation-bomb hardened: every count and length is
// validated against the bytes actually remaining before memory is
// reserved, and every error path returns cleanly (the fuzz suite holds the
// no-panic line).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/fib"
	"centralium/internal/topo"
)

// Magic identifies a Centralium snapshot file.
var Magic = [4]byte{'C', 'S', 'N', 'P'}

// Version is the current format version.
const Version = 1

// Section tags.
const (
	tagMeta     = 1
	tagOptions  = 2
	tagTopo     = 3
	tagEngine   = 4
	tagSessions = 5
	tagNodes    = 6
	tagFIFO     = 7
)

// ErrTruncated reports input that ended mid-structure.
var ErrTruncated = errors.New("snapshot: truncated input")

// ErrAdjInRoute reports an Adj-RIB-In route whose LocalPref is not its
// speaker's, or whose next hop or peer is not its session's device. A speaker
// keeps only what the peer sent and renders those three from its config and
// the peer record, so such a route has no in-memory form.
var ErrAdjInRoute = errors.New("snapshot: Adj-RIB-In route disagrees with its speaker or session")

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

type writer struct {
	buf []byte
	// ribs is encodeAdjIn's scratch: the per-session view of one speaker.
	ribs [][]adjInRef
	// err is the first state the format cannot carry; encodeState returns it.
	err error
}

func (w *writer) u64(v uint64)  { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) i64(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) { w.bytes([]byte(s)) }
func (w *writer) prefix(p netip.Prefix) {
	if !p.IsValid() {
		w.str("")
		return
	}
	var scratch [64]byte
	w.bytes(p.AppendTo(scratch[:0]))
}

// section appends one tagged section whose payload is produced by fill.
// fill writes straight into w; the payload's uvarint length, known only
// afterwards, is then slid in front of it with one copy. It returns how far
// the payload moved, for a caller that noted offsets while filling.
func (w *writer) section(tag byte, fill func(*writer)) int {
	w.buf = append(w.buf, tag)
	start := len(w.buf)
	fill(w)
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(w.buf)-start))
	w.buf = append(w.buf, prefix[:n]...)
	copy(w.buf[start+n:], w.buf[start:])
	copy(w.buf[start:], prefix[:n])
	return n
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < 1 {
		r.fail(ErrTruncated)
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail(fmt.Errorf("snapshot: invalid bool byte %d", v))
		return false
	}
	return v == 1
}

// raw returns the next length-prefixed blob as a view into the input.
func (r *reader) raw() []byte {
	l := r.u64()
	if r.err != nil {
		return nil
	}
	if l > uint64(r.remaining()) {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+int(l) : r.off+int(l)]
	r.off += int(l)
	return out
}

func (r *reader) str() string { return string(r.raw()) }

// strLike reads the next string, returning like itself when they are equal:
// a checkpoint repeats device names and path keys in long runs, and the
// decoded state keeps one copy of a run.
func (r *reader) strLike(like string) string {
	if b := r.raw(); string(b) != like {
		return string(b)
	}
	return like
}

// count reads a collection length, rejecting values that could not fit in
// the remaining bytes (each element costs at least one byte) — the
// allocation-bomb guard.
func (r *reader) count() int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()) {
		r.fail(ErrTruncated)
		return 0
	}
	return int(v)
}

func (r *reader) prefix() netip.Prefix {
	s := r.str()
	if r.err != nil || s == "" {
		return netip.Prefix{}
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		r.fail(fmt.Errorf("snapshot: bad prefix %q: %w", s, err))
		return netip.Prefix{}
	}
	return p
}

// intN bounds an i64 that must fit a non-negative int.
func (r *reader) intN() int {
	v := r.i64()
	if r.err != nil {
		return 0
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(fmt.Errorf("snapshot: integer %d out of range", v))
		return 0
	}
	return int(v)
}

// ---------------------------------------------------------------------------
// Structured encode
// ---------------------------------------------------------------------------

func encodeUpdate(w *writer, u *bgp.Update) {
	w.prefix(u.Prefix)
	w.bool(u.Withdraw)
	w.u64(uint64(len(u.ASPath)))
	for _, asn := range u.ASPath {
		w.u64(uint64(asn))
	}
	w.u64(uint64(len(u.Communities)))
	for _, c := range u.Communities {
		w.str(c)
	}
	w.u64(uint64(u.Origin))
	w.u64(uint64(u.MED))
	w.f64(u.LinkBandwidthGbps)
}

// encodeAttrs writes one Adj-RIB-In route as the format has always carried
// it, a whole core.RouteAttrs: the peer's route a from the column, and what
// the speaker renders for it, the column's prefix p, the speaker's LocalPref
// and the session's device as next hop and peer.
func encodeAttrs(w *writer, p netip.Prefix, a *bgp.Route, localPref uint32, device string) {
	w.prefix(p)
	w.u64(uint64(len(a.ASPath)))
	for _, asn := range a.ASPath {
		w.u64(uint64(asn))
	}
	w.u64(uint64(len(a.Communities)))
	for _, c := range a.Communities {
		w.str(c)
	}
	w.u64(uint64(localPref))
	w.u64(uint64(a.MED))
	w.u64(uint64(a.Origin))
	w.str(device)
	w.str(device)
	w.f64(a.LinkBandwidthGbps)
}

func encodeDecision(w *writer, d *bgp.DecisionInfo) {
	w.bool(d.ViaRPA)
	w.str(d.MatchedSet)
	w.bool(d.Originated)
	w.i64(int64(d.SelectedPaths))
	w.i64(int64(d.DistinctNextHops))
	w.i64(int64(d.MnhRequired))
	w.bool(d.KeepWarmOnViolation)
	w.bool(d.MnhWithdrawn)
	w.bool(d.Withdrawn)
	w.i64(int64(d.AdvertisedPathLen))
	w.i64(int64(d.MaxSelectedPathLen))
	w.str(d.WeightMode)
}

func encodeFIB(w *writer, t *fib.TableState) {
	w.i64(int64(t.Limit))
	w.u64(uint64(len(t.Entries)))
	for _, e := range t.Entries {
		w.prefix(e.Prefix)
		w.u64(uint64(len(e.Hops)))
		for _, h := range e.Hops {
			w.str(h.ID)
			w.i64(int64(h.Weight))
		}
	}
	w.u64(uint64(len(t.Warm)))
	for _, p := range t.Warm {
		w.prefix(p)
	}
	w.i64(int64(t.PeakGroups))
	w.i64(int64(t.Overflows))
	w.i64(int64(t.GroupChurn))
	w.i64(int64(t.Writes))
}

func encodeCache(w *writer, c *core.CacheState) {
	w.i64(int64(c.Max))
	w.bool(c.Enabled)
	w.u64(c.Hits)
	w.u64(c.Misses)
	w.u64(uint64(len(c.Entries)))
	for _, e := range c.Entries {
		w.str(e.Key.Statement)
		w.i64(int64(e.Key.Set))
		w.u64(e.Key.Route)
		w.bool(e.Value)
	}
}

// adjInRef locates one route of a SpeakerState: column entry col of prefix
// record prefix.
type adjInRef struct{ prefix, col int32 }

// encodeAdjIn writes the Adj-RIB-In as the format has always carried it: one
// record per peer, in peer order, holding that session's routes sorted by
// prefix. The state keeps the routes per prefix (the engine's columns), so
// the per-session view exists only here, while the encoder writes. Columns
// name sessions by rank, in peer order, which the cursor k follows.
func encodeAdjIn(w *writer, s *bgp.SpeakerState) {
	for len(w.ribs) < len(s.Peers) {
		w.ribs = append(w.ribs, nil)
	}
	ribs := w.ribs[:len(s.Peers)]
	for i := range s.Prefixes {
		k := 0
		for j := range s.Prefixes[i].Cands {
			c := &s.Prefixes[i].Cands[j]
			if int(c.Peer) < k || int(c.Peer) >= len(s.Peers) {
				// Neither a speaker nor the decoder builds such a column.
				if w.err == nil {
					w.err = fmt.Errorf("snapshot: %s: Adj-RIB-In column of %v is not in peer order at rank %d", s.Cfg.ID, s.Prefixes[i].Prefix, c.Peer)
				}
				return
			}
			k = int(c.Peer)
			ribs[k] = append(ribs[k], adjInRef{int32(i), int32(j)})
		}
	}
	lp := s.Cfg.EffectiveLocalPref()
	w.u64(uint64(len(s.Peers)))
	for k := range ribs {
		w.str(string(s.Peers[k].Session))
		w.u64(uint64(len(ribs[k])))
		for _, ref := range ribs[k] {
			pb := &s.Prefixes[ref.prefix]
			encodeAttrs(w, pb.Prefix, &pb.Cands[ref.col].Attrs, lp, s.Peers[k].Device)
		}
		ribs[k] = ribs[k][:0]
	}
}

func encodeSpeaker(w *writer, s *bgp.SpeakerState) {
	w.str(s.Cfg.ID)
	w.u64(uint64(s.Cfg.ASN))
	w.bool(s.Cfg.Multipath)
	w.u64(uint64(s.Cfg.WCMP))
	w.u64(uint64(s.Cfg.Advertise))
	w.i64(int64(s.Cfg.FIBGroupLimit))
	w.i64(int64(s.Cfg.VendorMinECMP))
	w.u64(uint64(s.Cfg.LocalPref))
	w.bool(s.Drained)

	w.i64(int64(s.Stats.UpdatesReceived))
	w.i64(int64(s.Stats.UpdatesSent))
	w.i64(int64(s.Stats.WithdrawalsSent))
	w.i64(int64(s.Stats.LoopRejects))
	w.i64(int64(s.Stats.FirstASRejects))
	w.i64(int64(s.Stats.FilterRejects))
	w.i64(int64(s.Stats.Recomputes))
	w.i64(int64(s.Stats.RPASelections))
	w.i64(int64(s.Stats.NativeDecisions))
	w.i64(int64(s.Stats.MnhWithdrawals))
	w.i64(int64(s.Stats.WeightOverrides))

	w.u64(uint64(len(s.Peers)))
	for i, p := range s.Peers {
		if i > 0 && p.Session <= s.Peers[i-1].Session && w.err == nil {
			// Ranks index the sorted peers, so only that listing has a wire form.
			w.err = fmt.Errorf("snapshot: %s: peers not in session order at %q", s.Cfg.ID, p.Session)
		}
		w.str(string(p.Session))
		w.str(p.Device)
		w.u64(uint64(p.ASN))
		w.f64(p.LinkGbps)
		w.i64(int64(p.Prepend))
	}
	encodeAdjIn(w, s)
	w.u64(uint64(len(s.Originated)))
	for i := range s.Originated {
		o := &s.Originated[i]
		w.prefix(o.Prefix)
		w.u64(uint64(len(o.Communities)))
		for _, c := range o.Communities {
			w.str(c)
		}
		w.u64(uint64(o.Origin))
		w.f64(o.BandwidthGbps)
		w.bool(o.InstallFIB)
	}
	w.u64(uint64(len(s.Prefixes)))
	for i := range s.Prefixes {
		pb := &s.Prefixes[i]
		w.prefix(pb.Prefix)
		w.i64(int64(pb.Baseline))
		w.bool(pb.HasLast)
		encodeDecision(w, &pb.Last)
		w.u64(uint64(len(pb.Advertised)))
		for j := range pb.Advertised {
			a := &pb.Advertised[j]
			if a.Peer < 0 || int(a.Peer) >= len(s.Peers) {
				if w.err == nil {
					w.err = fmt.Errorf("snapshot: %s: Adj-RIB-Out of %v names rank %d of %d peers", s.Cfg.ID, pb.Prefix, a.Peer, len(s.Peers))
				}
				return
			}
			w.str(string(s.Peers[a.Peer].Session))
			w.str(a.PathKey)
			w.f64(a.BW)
			w.i64(int64(a.PathLen))
		}
	}
	var rpa []byte
	if s.RPA != nil {
		rpa = s.RPA.JSON()
	}
	w.bytes(rpa)
	encodeCache(w, &s.Cache)
	encodeFIB(w, &s.FIB)
}

// layout locates, in one encoding, what a later encoding of a state derived
// from it can copy instead of rendering again.
type layout struct {
	topo  [2]int // the topology section, tag and length included
	nodes []int  // node i's record is bytes nodes[i]:nodes[i+1]
}

// testHook, when set by a test, is told of every "encode", "decode",
// "topo-export" and "topo-import" this package performs. Production leaves
// it nil.
var testHook func(what string)

func hook(what string) {
	if testHook != nil {
		testHook(what)
	}
}

// encodeState renders a NetState plus metadata into the wire format and
// reports where the reusable parts landed. The topology travels as its JSON
// export: at rest the state holds only the parsed, frozen form restores share.
//
// from, when non-nil, is the encoding (with its layout) of sh.Base, the state
// st was exported against: st's topology, which is the base's own, and every
// node record st repeats from the base (fabric.Shared) are copied out of it
// byte for byte, and only the rest is rendered. With nothing to copy
// from this is the full encode; the result is the same bytes either way.
func encodeState(st *fabric.NetState, meta map[string]string, from *rendering, sh fabric.Shared) ([]byte, layout, error) {
	hook("encode")
	var lay layout
	var w writer
	if from != nil {
		w.buf = make([]byte, 0, len(from.canon)+len(from.canon)/8)
	}
	w.buf = append(w.buf, Magic[:]...)
	w.u64(Version)

	if len(meta) > 0 {
		w.section(tagMeta, func(w *writer) {
			keys := make([]string, 0, len(meta))
			for k := range meta {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.u64(uint64(len(keys)))
			for _, k := range keys {
				w.str(k)
				w.str(meta[k])
			}
		})
	}
	w.section(tagOptions, func(w *writer) {
		w.i64(st.Seed)
		w.i64(int64(st.BaseLatency))
		w.i64(int64(st.Jitter))
	})
	lay.topo[0] = len(w.buf)
	if from != nil {
		w.buf = append(w.buf, from.canon[from.topo[0]:from.topo[1]]...)
	} else {
		hook("topo-export")
		topoJSON, err := st.Topo.ExportJSON()
		if err != nil {
			return nil, lay, fmt.Errorf("snapshot: export topology: %w", err)
		}
		w.section(tagTopo, func(w *writer) { w.bytes(topoJSON) })
	}
	lay.topo[1] = len(w.buf)
	w.section(tagEngine, func(w *writer) {
		w.i64(st.Now)
		w.i64(st.Seq)
		w.i64(st.Processed)
		w.i64(st.Batched)
		w.u64(st.RNGDraws)
		w.u64(uint64(len(st.Queue)))
		for i := range st.Queue {
			q := &st.Queue[i]
			w.i64(q.At)
			w.i64(q.Seq)
			w.str(q.Session)
			w.str(q.To)
			w.i64(int64(q.Epoch))
			encodeUpdate(w, &q.Update)
		}
	})
	w.section(tagSessions, func(w *writer) {
		w.u64(uint64(len(st.Sessions)))
		for _, s := range st.Sessions {
			w.str(s.ID)
			w.bool(s.Up)
			w.i64(int64(s.Epoch))
		}
	})
	lay.nodes = make([]int, len(st.Nodes)+1)
	moved := w.section(tagNodes, func(w *writer) {
		w.u64(uint64(len(st.Nodes)))
		for i := range st.Nodes {
			lay.nodes[i] = len(w.buf)
			if from != nil && sh.Nodes[i] >= 0 {
				j := sh.Nodes[i]
				w.buf = append(w.buf, from.canon[from.nodes[j]:from.nodes[j+1]]...)
				continue
			}
			n := &st.Nodes[i]
			w.str(n.Device)
			w.bool(n.Up)
			w.i64(n.VNow)
			encodeSpeaker(w, &n.Speaker)
		}
		lay.nodes[len(st.Nodes)] = len(w.buf)
	})
	for i := range lay.nodes {
		lay.nodes[i] += moved
	}
	w.section(tagFIFO, func(w *writer) {
		w.u64(uint64(len(st.FIFO)))
		for _, f := range st.FIFO {
			w.str(f.Key)
			w.i64(f.At)
		}
	})
	if w.err != nil {
		return nil, lay, w.err
	}
	return w.buf, lay, nil
}

// ---------------------------------------------------------------------------
// Structured decode
// ---------------------------------------------------------------------------

func decodeUpdate(r *reader) bgp.Update {
	var u bgp.Update
	u.Prefix = r.prefix()
	u.Withdraw = r.bool()
	if n := r.count(); n > 0 {
		u.ASPath = make([]uint32, n)
		for i := range u.ASPath {
			u.ASPath[i] = uint32(r.u64())
		}
	}
	if n := r.count(); n > 0 {
		u.Communities = make([]string, n)
		for i := range u.Communities {
			u.Communities[i] = r.str()
		}
	}
	u.Origin = core.Origin(r.u64())
	u.MED = uint32(r.u64())
	u.LinkBandwidthGbps = r.f64()
	return u
}

// adjInRoute is one Adj-RIB-In route as the decoder reads it, per session,
// before transposeAdjIn files it under its prefix.
type adjInRoute struct {
	prefix netip.Prefix
	route  bgp.Route
}

// decodeAttrs reads one route of a speaker whose routes carry LocalPref
// localPref, learned on a session to device. The fields a speaker renders
// rather than stores (see encodeAttrs) are checked against what it would
// render, here where they are read, so no device name is copied out of the
// input; one that differs is ErrAdjInRoute.
func decodeAttrs(r *reader, localPref uint32, device string) adjInRoute {
	var a adjInRoute
	a.prefix = r.prefix()
	if n := r.count(); n > 0 {
		a.route.ASPath = make([]uint32, n)
		for i := range a.route.ASPath {
			a.route.ASPath[i] = uint32(r.u64())
		}
	}
	if n := r.count(); n > 0 {
		a.route.Communities = make([]string, n)
		for i := range a.route.Communities {
			a.route.Communities[i] = r.str()
		}
	}
	lp := r.u64()
	a.route.MED = uint32(r.u64())
	a.route.Origin = core.Origin(r.u64())
	nextHop, peer := r.raw(), r.raw()
	a.route.LinkBandwidthGbps = r.f64()
	if r.err == nil && (lp != uint64(localPref) || string(nextHop) != device || string(peer) != device) {
		r.fail(fmt.Errorf("%w: route for %v from %s has LocalPref %d (speaker %d), next hop %q, peer %q", ErrAdjInRoute, a.prefix, device, lp, localPref, nextHop, peer))
	}
	return a
}

func decodeDecision(r *reader) bgp.DecisionInfo {
	var d bgp.DecisionInfo
	d.ViaRPA = r.bool()
	d.MatchedSet = r.str()
	d.Originated = r.bool()
	d.SelectedPaths = r.intN()
	d.DistinctNextHops = r.intN()
	d.MnhRequired = r.intN()
	d.KeepWarmOnViolation = r.bool()
	d.MnhWithdrawn = r.bool()
	d.Withdrawn = r.bool()
	d.AdvertisedPathLen = r.intN()
	d.MaxSelectedPathLen = r.intN()
	d.WeightMode = r.str()
	return d
}

func decodeFIB(r *reader) fib.TableState {
	var t fib.TableState
	t.Limit = r.intN()
	if n := r.count(); n > 0 {
		t.Entries = make([]fib.Entry, n)
		for i := range t.Entries {
			t.Entries[i].Prefix = r.prefix()
			if h := r.count(); h > 0 {
				t.Entries[i].Hops = make([]fib.NextHop, h)
				for j := range t.Entries[i].Hops {
					t.Entries[i].Hops[j].ID = r.str()
					t.Entries[i].Hops[j].Weight = r.intN()
				}
			}
		}
	}
	if n := r.count(); n > 0 {
		t.Warm = make([]netip.Prefix, n)
		for i := range t.Warm {
			t.Warm[i] = r.prefix()
		}
	}
	t.PeakGroups = r.intN()
	t.Overflows = r.intN()
	t.GroupChurn = r.intN()
	t.Writes = r.intN()
	return t
}

func decodeCache(r *reader) core.CacheState {
	var c core.CacheState
	c.Max = r.intN()
	c.Enabled = r.bool()
	c.Hits = r.u64()
	c.Misses = r.u64()
	if n := r.count(); n > 0 {
		c.Entries = make([]core.CacheEntry, n)
		for i := range c.Entries {
			c.Entries[i].Key.Statement = r.str()
			c.Entries[i].Key.Set = r.intN()
			c.Entries[i].Key.Route = r.u64()
			c.Entries[i].Value = r.bool()
		}
	}
	return c
}

// transposeAdjIn moves the routes read per session (ribs[i] is peer i's)
// into the state's per-prefix columns, all carved at their exact size out of
// one allocation. A column lists sessions in record order, so sorted input
// yields sorted columns. Every column hangs off a prefix record: a route
// without one is an error.
func transposeAdjIn(r *reader, s *bgp.SpeakerState, ribs [][]adjInRoute) {
	total := 0
	for _, routes := range ribs {
		total += len(routes)
	}
	if r.err != nil || total == 0 {
		return
	}
	book := make(map[netip.Prefix]*bgp.PrefixBookState, len(s.Prefixes))
	for i := range s.Prefixes {
		book[s.Prefixes[i].Prefix] = &s.Prefixes[i]
	}
	// Count each column's routes in its (still empty) slice length; carve.
	backing := make([]bgp.Candidate, total)
	for _, routes := range ribs {
		for j := range routes {
			pb := book[routes[j].prefix]
			if pb == nil {
				r.fail(fmt.Errorf("snapshot: %s: Adj-RIB-In route for %v, which has no prefix record", s.Cfg.ID, routes[j].prefix))
				return
			}
			pb.Cands = backing[:len(pb.Cands)+1]
		}
	}
	for i := range s.Prefixes {
		if n := len(s.Prefixes[i].Cands); n > 0 {
			s.Prefixes[i].Cands = backing[:0:n]
			backing = backing[n:]
		}
	}
	for i, routes := range ribs {
		for j := range routes {
			pb := book[routes[j].prefix]
			pb.Cands = append(pb.Cands, bgp.Candidate{Attrs: routes[j].route, Peer: int32(i)})
		}
	}
}

// decodeSpeaker compiles each distinct RPA rendering of a decode once:
// programs holds them, and speakers carrying the same JSON share one.
func decodeSpeaker(r *reader, programs map[string]*core.Program) bgp.SpeakerState {
	var s bgp.SpeakerState
	s.Cfg.ID = r.str()
	s.Cfg.ASN = uint32(r.u64())
	s.Cfg.Multipath = r.bool()
	s.Cfg.WCMP = bgp.WCMPMode(r.u64())
	s.Cfg.Advertise = bgp.AdvertiseMode(r.u64())
	s.Cfg.FIBGroupLimit = r.intN()
	s.Cfg.VendorMinECMP = r.intN()
	s.Cfg.LocalPref = uint32(r.u64())
	s.Drained = r.bool()

	s.Stats.UpdatesReceived = r.intN()
	s.Stats.UpdatesSent = r.intN()
	s.Stats.WithdrawalsSent = r.intN()
	s.Stats.LoopRejects = r.intN()
	s.Stats.FirstASRejects = r.intN()
	s.Stats.FilterRejects = r.intN()
	s.Stats.Recomputes = r.intN()
	s.Stats.RPASelections = r.intN()
	s.Stats.NativeDecisions = r.intN()
	s.Stats.MnhWithdrawals = r.intN()
	s.Stats.WeightOverrides = r.intN()

	if n := r.count(); n > 0 {
		s.Peers = make([]bgp.PeerState, n)
		for i := range s.Peers {
			s.Peers[i].Session = bgp.SessionID(r.str())
			s.Peers[i].Device = r.str()
			s.Peers[i].ASN = uint32(r.u64())
			s.Peers[i].LinkGbps = r.f64()
			s.Peers[i].Prepend = r.intN()
		}
	}
	// The Adj-RIB-In arrives per session and is kept per prefix: the routes
	// wait in ribs until the prefix records have been read.
	var ribs [][]adjInRoute
	if n := r.count(); n != len(s.Peers) {
		r.fail(fmt.Errorf("snapshot: %s has %d peers but %d Adj-RIB-In records", s.Cfg.ID, len(s.Peers), n))
	} else if n > 0 {
		ribs = make([][]adjInRoute, n)
		lp := s.Cfg.EffectiveLocalPref()
		for i := range ribs {
			if sess := r.str(); r.err == nil && sess != string(s.Peers[i].Session) {
				r.fail(fmt.Errorf("snapshot: %s: Adj-RIB-In record %d is for session %q, peer %d is %q", s.Cfg.ID, i, sess, i, s.Peers[i].Session))
			}
			if m := r.count(); m > 0 {
				ribs[i] = make([]adjInRoute, m)
				for j := range ribs[i] {
					ribs[i][j] = decodeAttrs(r, lp, s.Peers[i].Device)
				}
			}
		}
	}
	// A column names a session by its rank among the peers, which every
	// encoder lists sorted; the listing is then the rank order.
	for i := 1; i < len(s.Peers) && r.err == nil; i++ {
		if s.Peers[i-1].Session >= s.Peers[i].Session {
			r.fail(fmt.Errorf("snapshot: %s: peers not in session order at %q", s.Cfg.ID, s.Peers[i].Session))
		}
	}
	if n := r.count(); n > 0 {
		s.Originated = make([]bgp.OriginatedState, n)
		for i := range s.Originated {
			o := &s.Originated[i]
			o.Prefix = r.prefix()
			if m := r.count(); m > 0 {
				o.Communities = make([]string, m)
				for j := range o.Communities {
					o.Communities[j] = r.str()
				}
			}
			o.Origin = core.Origin(r.u64())
			o.BandwidthGbps = r.f64()
			o.InstallFIB = r.bool()
		}
	}
	if n := r.count(); n > 0 {
		s.Prefixes = make([]bgp.PrefixBookState, n)
		for i := range s.Prefixes {
			pb := &s.Prefixes[i]
			pb.Prefix = r.prefix()
			pb.Baseline = r.intN()
			pb.HasLast = r.bool()
			pb.Last = decodeDecision(r)
			if m := r.count(); m > 0 {
				pb.Advertised = make([]bgp.AdvState, m)
				k, key := 0, ""
				for j := range pb.Advertised {
					a := &pb.Advertised[j]
					// Entries follow peer order and mostly repeat one path
					// key: look for the session's rank from the last one's,
					// and keep one key.
					raw := r.raw()
					if k == len(s.Peers) || string(s.Peers[k].Session) > string(raw) {
						k = 0
					}
					for k < len(s.Peers) && string(s.Peers[k].Session) < string(raw) {
						k++
					}
					if k == len(s.Peers) || string(s.Peers[k].Session) != string(raw) {
						r.fail(fmt.Errorf("snapshot: %s: Adj-RIB-Out for unknown session %q", s.Cfg.ID, raw))
					}
					a.Peer = int32(k)
					key = r.strLike(key)
					a.PathKey = key
					a.BW = r.f64()
					a.PathLen = r.intN()
				}
			}
		}
	}
	transposeAdjIn(r, &s, ribs)
	if doc := r.raw(); len(doc) > 0 {
		if s.RPA = programs[string(doc)]; s.RPA == nil {
			var err error
			if s.RPA, err = core.ParseProgram(doc); err != nil {
				r.fail(fmt.Errorf("snapshot: %s: RPA config: %w", s.Cfg.ID, err))
			}
			programs[string(doc)] = s.RPA
		}
	}
	s.Cache = decodeCache(r)
	s.FIB = decodeFIB(r)
	return s
}

// canonicalOrder is the sections of a canonical encoding, in order.
var canonicalOrder = []byte{tagOptions, tagTopo, tagEngine, tagSessions, tagNodes, tagFIFO}

// decodeState parses wire-format bytes back into a NetState and metadata.
// lay, when non-nil, receives the input's layout. canonical reports that the
// input has the shape EncodeCanonical writes — exactly its sections in its
// order, each read to its last byte, a cleared Batched slot — so that bytes
// this package wrote that way can stand as the decoded state's rendering.
func decodeState(data []byte, lay *layout) (_ *fabric.NetState, _ map[string]string, canonical bool, _ error) {
	hook("decode")
	r := &reader{b: data}
	if r.remaining() < len(Magic) || string(r.b[:len(Magic)]) != string(Magic[:]) {
		return nil, nil, false, errors.New("snapshot: bad magic (not a Centralium snapshot)")
	}
	r.off = len(Magic)
	if v := r.u64(); r.err == nil && v != Version {
		return nil, nil, false, fmt.Errorf("snapshot: unsupported format version %d (have %d)", v, Version)
	}
	if r.err != nil {
		return nil, nil, false, r.err
	}

	st := &fabric.NetState{}
	meta := map[string]string{}
	seen := map[byte]bool{}
	var order []byte
	canonical = true
	for r.remaining() > 0 && r.err == nil {
		sectionStart := r.off
		tag := r.b[r.off]
		r.off++
		body := r.raw() // a view: nothing decoded keeps bytes of the input
		if r.err != nil {
			break
		}
		if seen[tag] {
			return nil, nil, false, fmt.Errorf("snapshot: duplicate section %d", tag)
		}
		seen[tag] = true
		order = append(order, tag)
		s := &reader{b: body}
		bodyStart := r.off - len(body)
		switch tag {
		case tagMeta:
			n := s.count()
			for i := 0; i < n && s.err == nil; i++ {
				k := s.str()
				meta[k] = s.str()
			}
		case tagOptions:
			st.Seed = s.i64()
			st.BaseLatency = time.Duration(s.i64())
			st.Jitter = time.Duration(s.i64())
		case tagTopo:
			if doc := s.raw(); s.err == nil {
				hook("topo-import")
				if st.Topo, s.err = topo.ImportJSON(doc); s.err == nil {
					st.Topo.Freeze() // before any restore shares it
				}
			}
			if lay != nil {
				lay.topo = [2]int{sectionStart, r.off}
			}
		case tagEngine:
			st.Now = s.i64()
			st.Seq = s.i64()
			st.Processed = s.i64()
			st.Batched = s.i64()
			st.RNGDraws = s.u64()
			if n := s.count(); n > 0 {
				st.Queue = make([]fabric.DeliveryState, n)
				for i := range st.Queue {
					q := &st.Queue[i]
					q.At = s.i64()
					q.Seq = s.i64()
					q.Session = s.str()
					q.To = s.str()
					q.Epoch = s.intN()
					q.Update = decodeUpdate(s)
				}
			}
		case tagSessions:
			if n := s.count(); n > 0 {
				st.Sessions = make([]fabric.SessionState, n)
				for i := range st.Sessions {
					st.Sessions[i].ID = s.str()
					st.Sessions[i].Up = s.bool()
					st.Sessions[i].Epoch = s.intN()
				}
			}
		case tagNodes:
			n := s.count()
			if n > 0 {
				st.Nodes = make([]fabric.NodeState, n)
			}
			if lay != nil {
				lay.nodes = make([]int, n+1)
			}
			programs := map[string]*core.Program{}
			for i := range st.Nodes {
				if lay != nil {
					lay.nodes[i] = bodyStart + s.off
				}
				st.Nodes[i].Device = s.str()
				st.Nodes[i].Up = s.bool()
				st.Nodes[i].VNow = s.i64()
				st.Nodes[i].Speaker = decodeSpeaker(s, programs)
			}
			if lay != nil {
				lay.nodes[n] = bodyStart + s.off
			}
		case tagFIFO:
			if n := s.count(); n > 0 {
				st.FIFO = make([]fabric.FIFOState, n)
				for i := range st.FIFO {
					st.FIFO[i].Key = s.str()
					st.FIFO[i].At = s.i64()
				}
			}
		default:
			// Unknown section: skip (forward compatibility).
		}
		if s.err != nil {
			return nil, nil, false, fmt.Errorf("snapshot: section %d: %w", tag, s.err)
		}
		canonical = canonical && s.remaining() == 0
	}
	if r.err != nil {
		return nil, nil, false, r.err
	}
	for _, required := range []byte{tagOptions, tagTopo, tagEngine, tagSessions, tagNodes} {
		if !seen[required] {
			return nil, nil, false, fmt.Errorf("snapshot: missing required section %d", required)
		}
	}
	// What a restore would refuse (a device, a peer or a FIB prefix listed
	// twice, a route on no peer's session) is refused here, so no restore of
	// a decoded state is; and each record's verdict is kept for its restores.
	if err := st.Check(); err != nil {
		return nil, nil, false, fmt.Errorf("snapshot: %w", err)
	}
	canonical = canonical && st.Batched == 0 && string(order) == string(canonicalOrder)
	return st, meta, canonical, nil
}

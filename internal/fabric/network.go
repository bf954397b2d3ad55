package fabric

import (
	"net/netip"
	"sort"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/fib"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// Options configures the emulation.
type Options struct {
	// Seed drives all randomness (message jitter). Same seed, same run.
	Seed int64

	// BaseLatency is the fixed per-message propagation delay
	// (default 1ms).
	BaseLatency time.Duration

	// Jitter is the maximum extra random delay per message (default 5ms).
	// This asynchrony is what creates the transient orderings of §3.
	Jitter time.Duration

	// SpeakerConfig customizes per-device speaker configuration; ID and
	// ASN are filled in from the device regardless. Nil gets the default:
	// multipath on, ECMP, least-favorable advertisement.
	SpeakerConfig func(d *topo.Device) bgp.Config

	// Workers is ignored: the engine is one sequential event loop and no
	// code reads this field. It stays declared only because bench/rigs.go
	// (frozen outside a benchmark PR) sets it; it goes with the
	// fabric.par_speedup_w2 rig that sets it.
	Workers int

	// FullRecompute makes every speaker the full-recompute oracle: the
	// advertise step walks every session on every decision run instead of
	// trusting its per-prefix memo. That is all the mode toggles — there
	// is one decision driver. False uses the process default (the memo,
	// unless the CENTRALIUM_FULL_RECOMPUTE env pins the oracle). Both modes
	// are byte-identical — tap streams, FIB state, snapshot fingerprints —
	// so the choice only affects wall-clock; the oracle exists for
	// differential testing.
	FullRecompute bool
}

func (o *Options) setDefaults() {
	if o.BaseLatency <= 0 {
		o.BaseLatency = time.Millisecond
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	} else if o.Jitter == 0 {
		o.Jitter = 5 * time.Millisecond
	}
	if o.SpeakerConfig == nil {
		o.SpeakerConfig = func(*topo.Device) bgp.Config {
			return bgp.Config{Multipath: true}
		}
	}
}

// session is one emulated BGP session (one topology link).
type session struct {
	id   bgp.SessionID
	a, b topo.DeviceID
	// ends are the nodes of a and b, indexed like a delivery's direction.
	ends [2]*Node
	gbps float64
	up   bool
	// epoch counts teardowns. A message scheduled for delivery carries the
	// epoch it was sent under; if the session bounced while it was in
	// flight the message dies with its TCP connection instead of being
	// delivered into the new incarnation after resync.
	epoch int32
	// fifo is the last scheduled delivery time toward each end (0: nothing
	// sent that way yet), so messages on one session stay ordered, as over
	// TCP.
	fifo [2]int64
	// tail is the engine slot of the last delivery queued in order toward
	// each end (none: the direction has nothing queued; see engine).
	tail [2]int32
}

// buildSessions fills the session slab, one (down) session per link of the
// frame's topology, named and wired to its end nodes by the frame.
func (n *Network) buildSessions(links []topo.Link) {
	n.sess = make([]session, len(links))
	for li, l := range links {
		e := n.frame.ends[li]
		n.sess[li] = session{
			id:   n.frame.ids[li],
			a:    l.A,
			b:    l.B,
			ends: [2]*Node{&n.nodes[e[0]], &n.nodes[e[1]]},
			gbps: l.CapacityGbps,
			tail: [2]int32{none, none},
		}
	}
}

// end returns the direction index of dev on the session (0 for a, 1 for b).
func (s *session) end(dev topo.DeviceID) uint8 {
	if dev == s.a {
		return 0
	}
	return 1
}

// endID returns the device at a direction index.
func (s *session) endID(dir uint8) topo.DeviceID {
	if dir == 0 {
		return s.a
	}
	return s.b
}

// Node is one emulated switch: the device record plus its BGP speaker.
type Node struct {
	Device  *topo.Device
	Speaker *bgp.Speaker
	up      bool

	// vnow is the virtual time of the last delivery dispatched to this
	// node. Nothing reads it but the checkpoint: the CSNP node record
	// carries it, so it keeps being stamped until the next CSNP version
	// bump drops the slot (the wire format and every fingerprint must not
	// move before then).
	vnow int64

	// baseIdx is the node's index in the network's base state, -1 without
	// one. A write to up or vnow goes with a Speaker.Touch (see ExportShared).
	baseIdx int
}

// Up reports whether the device is administratively up.
func (n *Node) Up() bool { return n.up }

// Perturbation adjusts one scheduled message delivery: fault injection for
// the chaos harness. ExtraDelay stretches the delivery; Drop discards the
// message entirely. A dropped message models a broken TCP stream, so
// callers that drop should eventually reset the session to resynchronize
// state (the chaos injector does).
type Perturbation struct {
	Drop       bool
	ExtraDelay time.Duration
}

// Perturber inspects one in-flight message and returns its perturbation.
// The zero Perturbation delivers normally.
type Perturber func(sess bgp.SessionID, from, to topo.DeviceID, u bgp.Update) Perturbation

// Network is the emulated fleet.
type Network struct {
	// Topo is the frozen topology the network stands on, shared by pointer
	// with its states and every network restored from them.
	Topo *topo.Topology

	opts Options
	eng  *engine
	// nodes holds one node per device in ID order, sess one session per
	// topology link by link index; frame says where each one sits.
	nodes []Node
	sess  []session
	frame *frame
	// perturb, when set, is consulted for every outgoing message.
	perturb Perturber
	// taps is the fan-out every speaker emits into (see AddTap).
	taps telemetry.MultiTap

	// base is the state the network was restored from or last exported as,
	// nil for one built by New and not yet exported: what ExportShared
	// repeats the records of untouched nodes from.
	base *NetState
	// sessDirty records a session going up or down or a message being
	// scheduled — everything a state's Sessions and FIFO hold — since base.
	sessDirty bool
}

// New builds the emulation: one speaker per device, one session per link.
// All devices start up and all sessions established. It freezes t (see
// topo.Topology.Freeze): the network, its states and every network restored
// from them share it.
func New(t *topo.Topology, opts Options) *Network {
	opts.setDefaults()
	t.Freeze()
	n := &Network{
		Topo:  t,
		opts:  opts,
		eng:   newEngine(opts.Seed),
		frame: newFrame(t, nil),
	}
	n.eng.net = n
	now := n.Now // every speaker reads the one engine clock
	n.nodes = make([]Node, len(n.frame.devs))
	for i, id := range n.frame.devs {
		d := t.Device(id)
		cfg := opts.SpeakerConfig(d)
		cfg.ID = string(d.ID)
		cfg.ASN = d.ASN
		node := &n.nodes[i]
		*node = Node{Device: d, up: true, baseIdx: -1}
		node.Speaker = bgp.NewSpeaker(cfg, now)
		if opts.FullRecompute {
			node.Speaker.SetFullRecompute(true)
		}
	}
	n.buildSessions(t.Links())
	for li := range n.sess {
		n.establish(&n.sess[li])
	}
	return n
}

// node returns the node of a device, nil if there is none.
func (n *Network) node(id topo.DeviceID) *Node {
	if i := n.frame.dev(id); i >= 0 {
		return &n.nodes[i]
	}
	return nil
}

// session returns the session of an ID, nil if there is none.
func (n *Network) session(id bgp.SessionID) *session {
	if li := n.frame.link(id); li >= 0 {
		return &n.sess[li]
	}
	return nil
}

// establish brings a session up on both speakers.
func (n *Network) establish(s *session) {
	if s.up {
		return
	}
	n.sessDirty = true
	s.up = true
	na, nb := s.ends[0], s.ends[1]
	na.Speaker.AddPeer(s.id, string(s.b), nb.Device.ASN, s.gbps)
	n.flush(s.a)
	nb.Speaker.AddPeer(s.id, string(s.a), na.Device.ASN, s.gbps)
	n.flush(s.b)
}

// teardown brings a session down on both speakers.
func (n *Network) teardown(s *session) {
	if !s.up {
		return
	}
	n.sessDirty = true
	s.up = false
	s.epoch++
	s.ends[0].Speaker.RemovePeer(s.id)
	n.flush(s.a)
	s.ends[1].Speaker.RemovePeer(s.id)
	n.flush(s.b)
}

// flush drains one speaker's outbox, scheduling deliveries with base
// latency plus seeded jitter, preserving per-session FIFO order.
func (n *Network) flush(dev topo.DeviceID) { n.flushNode(n.node(dev)) }

func (n *Network) flushNode(node *Node) {
	msgs := node.Speaker.TakeOutbox()
	n.routeMsgs(node.Device.ID, msgs)
	node.Speaker.RecycleOutbox(msgs)
}

// routeMsgs schedules one batch of outgoing messages from dev: jitter
// draws, perturber calls, and FIFO bookkeeping happen here, in event order.
func (n *Network) routeMsgs(dev topo.DeviceID, msgs []bgp.OutMsg) {
	for i := range msgs {
		m := &msgs[i]
		li := n.frame.link(m.Session)
		if li < 0 || !n.sess[li].up {
			continue
		}
		s := &n.sess[li]
		to := 1 - s.end(dev)
		delay := int64(n.opts.BaseLatency)
		if j := int64(n.opts.Jitter); j > 0 {
			delay += n.eng.rng.Int63n(j)
		}
		if n.perturb != nil {
			pb := n.perturb(m.Session, dev, s.endID(to), m.Update)
			if pb.Drop {
				continue
			}
			// Only stretches are honored: no message arrives sooner than
			// BaseLatency after it was sent.
			if pb.ExtraDelay > 0 {
				delay += int64(pb.ExtraDelay)
			}
		}
		at := n.eng.now + delay
		if last := s.fifo[to]; at <= last {
			at = last + 1
		}
		s.fifo[to] = at
		n.sessDirty = true
		n.eng.push(at, &event{sess: int32(li), to: to, epoch: s.epoch, u: m.Update})
	}
}

// deliver executes one delivery event: pre-checks against the current
// session/device state, UPDATE handling, and an immediate flush.
func (n *Network) deliver(d *event) {
	s := &n.sess[d.sess]
	tn := s.ends[d.to]
	if !tn.up || !s.up || s.epoch != d.epoch {
		return // device down, or session went down (or bounced) in flight
	}
	tn.vnow = n.eng.now // HandleUpdate's Touch covers the stamp
	tn.Speaker.HandleUpdate(s.id, d.u)
	n.flushNode(tn)
}

// Node returns the node for a device (nil if unknown).
func (n *Network) Node(id topo.DeviceID) *Node { return n.node(id) }

// Speaker returns the BGP speaker of a device.
func (n *Network) Speaker(id topo.DeviceID) *bgp.Speaker { return n.node(id).Speaker }

// Now returns the virtual clock in nanoseconds.
func (n *Network) Now() int64 { return n.eng.now }

// EventsProcessed returns the total events processed so far.
func (n *Network) EventsProcessed() int64 { return n.eng.processed }

// OnEvent registers a hook invoked after every processed event — the
// sampling point for transient metrics (funneling, NHG occupancy).
func (n *Network) OnEvent(h func(now int64)) { n.eng.hooks = append(n.eng.hooks, h) }

// AddTap attaches one more telemetry tap to every speaker in the fabric;
// every attached tap sees every event, in attachment order. Speaker clocks
// are the engine's virtual clock, so the fleet stream is deterministically
// timestamped under a fixed seed. A network with no tap keeps nil speaker
// taps (the one-nil-check hot path); restored forks start with none.
func (n *Network) AddTap(t telemetry.Tap) {
	n.taps = append(n.taps, t)
	for i := range n.nodes {
		n.nodes[i].Speaker.SetTap(n.taps)
	}
}

// FullRecompute reports whether the fleet runs the full-recompute oracle
// (true only when every speaker does).
func (n *Network) FullRecompute() bool {
	for i := range n.nodes {
		if !n.nodes[i].Speaker.FullRecompute() {
			return false
		}
	}
	return true
}

// SetFullRecompute makes every speaker the full-recompute oracle
// (advertise memo off) or not. The switch is result-free: both modes are
// byte-identical, so flipping mid-run only changes wall-clock (the
// differential suite flips mid-scenario to prove it).
func (n *Network) SetFullRecompute(on bool) {
	for i := range n.nodes {
		n.nodes[i].Speaker.SetFullRecompute(on)
	}
}

// IncrementalStats sums the fleet's advertise-memo hits and skipped
// decision runs (both zero under the oracle); FIBMemoHits is inert, see its
// declaration.
func (n *Network) IncrementalStats() bgp.IncrementalStats {
	var agg bgp.IncrementalStats
	for i := range n.nodes {
		st := n.nodes[i].Speaker.IncrementalStats()
		agg.AdvertiseMemoHits += st.AdvertiseMemoHits
		agg.SkippedRecomputes += st.SkippedRecomputes
	}
	return agg
}

// Converge processes events until the network quiesces. It panics if the
// event budget is exhausted, which indicates a protocol bug (persistent
// update churn), not a large workload.
func (n *Network) Converge() int64 {
	processed, done := n.eng.run(0)
	if !done {
		panic("fabric: event budget exhausted before convergence")
	}
	return processed
}

// RunFor processes events within the next d of virtual time, then advances
// the clock to that point even if idle.
func (n *Network) RunFor(d time.Duration) int64 {
	return n.eng.runUntil(n.eng.now+ns(d), 0)
}

// After schedules fn at now+d, flushing nothing by itself — fn is
// responsible for flushing any speakers it touches (the helpers below all
// do).
func (n *Network) After(d time.Duration, fn func()) { n.eng.after(ns(d), fn) }

// OriginateAt injects a locally originated prefix at a device, now.
func (n *Network) OriginateAt(dev topo.DeviceID, p netip.Prefix, communities []string, bwGbps float64) {
	n.node(dev).Speaker.Originate(p, communities, core.OriginIGP, bwGbps)
	n.flush(dev)
}

// OriginateAggregateAt injects an advertised-on-behalf aggregate at a
// device: the prefix is advertised to peers but no local delivery entry is
// installed (see bgp.Speaker.OriginateEx).
func (n *Network) OriginateAggregateAt(dev topo.DeviceID, p netip.Prefix, communities []string, bwGbps float64) {
	n.node(dev).Speaker.OriginateEx(p, communities, core.OriginIGP, bwGbps, false)
	n.flush(dev)
}

// WithdrawAt retracts a locally originated prefix.
func (n *Network) WithdrawAt(dev topo.DeviceID, p netip.Prefix) {
	n.node(dev).Speaker.WithdrawOrigin(p)
	n.flush(dev)
}

// DeployRPA installs an RPA config on a device, now. Returns the speaker's
// validation error, if any.
func (n *Network) DeployRPA(dev topo.DeviceID, cfg *core.Config) error {
	if err := n.node(dev).Speaker.SetRPA(cfg); err != nil {
		return err
	}
	n.flush(dev)
	return nil
}

// DeployProgram is DeployRPA for an already compiled config: the program is
// shared by reference with every other speaker and fork it is deployed to.
func (n *Network) DeployProgram(dev topo.DeviceID, prog *core.Program) {
	n.node(dev).Speaker.SetProgram(prog)
	n.flush(dev)
}

// SetDrained drains or undrains a device.
func (n *Network) SetDrained(dev topo.DeviceID, drained bool) {
	n.node(dev).Speaker.SetDrained(drained)
	n.flush(dev)
}

// SetPrependAll applies an export prepend on all of a device's sessions
// (maintenance policy).
func (n *Network) SetPrependAll(dev topo.DeviceID, count int) {
	n.node(dev).Speaker.SetAllPeersPrepend(count)
	n.flush(dev)
}

// SetPrependToward applies an export prepend on dev's sessions toward one
// neighbor only (a per-peer export policy).
func (n *Network) SetPrependToward(dev, neighbor topo.DeviceID, count int) {
	n.node(dev).Speaker.SetPeerPrepend(string(neighbor), count)
	n.flush(dev)
}

// SetDeviceUp activates or deactivates a device: down tears down all its
// sessions, up re-establishes them. Used for incremental deployment
// (Figure 2's FAv2 activation) and decommissioning.
func (n *Network) SetDeviceUp(dev topo.DeviceID, up bool) {
	node := n.node(dev)
	if node.up == up {
		return
	}
	node.Speaker.Touch()
	node.up = up
	ids := n.sessionsOf(dev)
	for _, sid := range ids {
		s := n.session(sid)
		other := s.a
		if other == dev {
			other = s.b
		}
		if up {
			if n.node(other).up {
				n.establish(s)
			}
		} else {
			n.teardown(s)
		}
	}
}

// SetLinkUp fails or restores every session between two devices (failure
// injection). Restoring only re-establishes sessions whose endpoints are
// both up.
func (n *Network) SetLinkUp(a, b topo.DeviceID, up bool) {
	ids := n.sessionsOf(a)
	for _, sid := range ids {
		s := n.session(sid)
		if !(s.a == a && s.b == b) && !(s.a == b && s.b == a) {
			continue
		}
		if up {
			if n.node(s.a).up && n.node(s.b).up {
				n.establish(s)
			}
		} else {
			n.teardown(s)
		}
	}
}

// SetPerturber installs (or, with nil, removes) the message perturber.
// The perturber is consulted once per outgoing message, after the normal
// latency draw, so installing one does not change the RNG consumption
// pattern — runs with and without a perturber stay seed-comparable up to
// the first perturbed message.
func (n *Network) SetPerturber(fn Perturber) { n.perturb = fn }

// SessionInfo is the externally visible state of one session.
type SessionInfo struct {
	ID   bgp.SessionID
	A, B topo.DeviceID
	Up   bool
}

// SessionList returns every session sorted by ID — the fault planner's
// sampling universe.
func (n *Network) SessionList() []SessionInfo {
	out := make([]SessionInfo, 0, len(n.sess))
	for i := range n.sess {
		s := &n.sess[i]
		out = append(out, SessionInfo{ID: s.id, A: s.a, B: s.b, Up: s.up})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetSessionUp fails or restores one session by ID (finer grained than
// SetLinkUp, which acts on every parallel session of a link). Restoring is
// a no-op unless both endpoints are up. Returns false for unknown IDs.
func (n *Network) SetSessionUp(id bgp.SessionID, up bool) bool {
	s := n.session(id)
	if s == nil {
		return false
	}
	if up {
		if n.node(s.a).up && n.node(s.b).up {
			n.establish(s)
		}
	} else {
		n.teardown(s)
	}
	return true
}

// LiveSessions counts a device's currently established sessions. The chaos
// injector uses it to bound blast radius: a fault that would sever a
// device's last live session is suppressed rather than partitioning the
// fleet.
func (n *Network) LiveSessions(dev topo.DeviceID) int {
	count := 0
	for i := range n.sess {
		if s := &n.sess[i]; (s.a == dev || s.b == dev) && s.up {
			count++
		}
	}
	return count
}

// RestartDevice emulates a routing-daemon restart: every session drops at
// once, and after downFor the sessions that were up come back (provided
// their far ends are still up). With warmFIB the forwarding table is
// snapshotted before the crash and re-installed warm — the
// graceful-restart dataplane behavior KeepFibWarmIfMnhViolated leans on —
// so traffic keeps flowing on stale state while BGP reconverges. Without
// it the FIB empties with the sessions, as on a cold reboot. Messages in
// flight at the crash die with their session epoch; none leak into the
// restarted sessions.
func (n *Network) RestartDevice(dev topo.DeviceID, downFor time.Duration, warmFIB bool) {
	node := n.node(dev)
	if node == nil || !node.up {
		return
	}
	var snap []fib.Entry
	if warmFIB {
		snap = node.Speaker.FIB().Snapshot()
	}
	ids := n.sessionsOf(dev)
	var torn []bgp.SessionID
	for _, sid := range ids {
		s := n.session(sid)
		if s.up {
			n.teardown(s)
			torn = append(torn, sid)
		}
	}
	if warmFIB {
		node.Speaker.Touch()
		tbl := node.Speaker.FIB()
		for _, e := range snap {
			tbl.Install(e.Prefix, e.Hops)
			tbl.MarkWarm(e.Prefix)
		}
	}
	n.eng.after(ns(downFor), func() {
		if !node.up {
			return // powered off while restarting
		}
		for _, sid := range torn {
			s := n.session(sid)
			other := s.a
			if other == dev {
				other = s.b
			}
			if n.node(other).up {
				n.establish(s)
			}
		}
	})
}

// sessionsOf returns the session IDs incident to a device, sorted.
func (n *Network) sessionsOf(dev topo.DeviceID) []bgp.SessionID {
	var out []bgp.SessionID
	for i := range n.sess {
		if s := &n.sess[i]; s.a == dev || s.b == dev {
			out = append(out, s.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SessionPeer resolves a session ID to the device on the far side from
// `from`. It reports false for unknown sessions.
func (n *Network) SessionPeer(from topo.DeviceID, sess bgp.SessionID) (topo.DeviceID, bool) {
	s := n.session(sess)
	if s == nil {
		return "", false
	}
	if s.a == from {
		return s.b, true
	}
	if s.b == from {
		return s.a, true
	}
	return "", false
}

// NextHopWeights resolves a device's FIB entry for a prefix (exact match)
// into (neighbor device, weight) pairs, merging parallel sessions to the
// same neighbor. A local delivery entry yields {dev, weight} itself.
func (n *Network) NextHopWeights(dev topo.DeviceID, p netip.Prefix) map[topo.DeviceID]int {
	hops := n.node(dev).Speaker.FIB().Lookup(p)
	if hops == nil {
		return nil
	}
	out := make(map[topo.DeviceID]int, len(hops))
	for _, h := range hops {
		if h.ID == bgp.LocalNextHop {
			out[dev] += h.Weight
			continue
		}
		if peer, ok := n.SessionPeer(dev, bgp.SessionID(h.ID)); ok {
			out[peer] += h.Weight
		}
	}
	return out
}

// UpDevices returns the IDs of administratively-up devices, sorted.
func (n *Network) UpDevices() []topo.DeviceID {
	var out []topo.DeviceID
	for i := range n.nodes {
		if node := &n.nodes[i]; node.up {
			out = append(out, node.Device.ID)
		}
	}
	return out
}

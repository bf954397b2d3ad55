package fabric

// Checkpoint support: NetState is the complete serializable state of a
// Network — topology, options, virtual clock, event queue, RNG stream
// position, per-session epochs, per-device speaker state, and FIFO
// bookkeeping. NewFromState rebuilds an independent Network that continues
// byte-identically (tap stream, RNG draws, logs) to the captured one.
//
// Two things deliberately do not serialize, and ExportState guards both:
//
//   - Control events (After callbacks, restart timers) are closures; a
//     checkpoint is only consistent at a point where the queue holds pure
//     message deliveries — convergence phases and quiescent states.
//   - Hooks, taps, and perturbers are live wiring to the host process; the
//     caller re-attaches them after restore (they carry no protocol state).

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// DeliveryState is one serialized in-flight UPDATE.
type DeliveryState struct {
	At      int64
	Seq     int64
	Session string
	To      string
	Epoch   int
	Update  bgp.Update
}

// SessionState is one session's dynamic state (identity derives from the
// topology).
type SessionState struct {
	ID    string
	Up    bool
	Epoch int
}

// NodeState is one device's dynamic state plus its full speaker state.
type NodeState struct {
	Device  string
	Up      bool
	VNow    int64
	Speaker bgp.SpeakerState
}

// FIFOState is one (session, receiver) last-delivery-time entry. Key is
// "<session>><receiver>"; the network keeps the times in two slots per
// session and renders the keys only here.
type FIFOState struct {
	Key string
	At  int64
}

// NetState is the complete serializable state of a Network. It is fully
// self-contained and immutable once built: NewFromState adopts much of it by
// reference (see there), so one captured state can seed any number of
// independent restored networks as long as nobody writes to it.
type NetState struct {
	Seed        int64
	BaseLatency time.Duration
	Jitter      time.Duration
	Topo        *topo.Topology // frozen master: restores clone it, nothing mutates it

	Now       int64
	Seq       int64
	Processed int64
	// Batched is written as 0 and ignored on restore. It was the
	// batch-parallel engine's event counter; the CSNP engine record still
	// carries the slot, and it goes at the next CSNP version bump (snapshots
	// written before the engine had one loop may hold a nonzero value).
	Batched  int64
	RNGDraws uint64
	Queue    []DeliveryState // sorted by (At, Seq)

	Sessions []SessionState // sorted by ID
	Nodes    []NodeState    // sorted by device
	FIFO     []FIFOState    // sorted by key
}

// Shared says what an exported state repeats, unchanged, from the state its
// network was restored from or last exported as.
type Shared struct {
	// Base is that state, sharing its frozen topology with the export; nil
	// when the network had none or its topology has changed since, and then
	// nothing is shared.
	Base *NetState
	// Nodes[i] is the index in Base.Nodes of the record the export's Nodes[i]
	// repeats, or -1 for a node exported afresh.
	Nodes []int
}

// ExportState captures the network for checkpointing. It fails if any
// pending event is a control callback (see the package comment above): the
// caller must checkpoint at a quiescent point or during a pure-delivery
// convergence phase. The state shares no mutable memory with the network:
// UPDATE and route AS paths and communities are immutable everywhere (see
// bgp.Speaker.HandleUpdate) and travel by reference.
func (n *Network) ExportState() (*NetState, error) {
	st, _, err := n.ExportShared()
	return st, err
}

// ExportShared is ExportState, and reports what the state shares with the
// network's base — the state it was restored from or last exported as. A node
// whose speaker nothing has touched since (bgp.Speaker.Dirty) is not exported
// again: the state repeats the base's record, which is immutable like the
// rest of it. A topology equal to the base's is not cloned again: the state
// points at the base's frozen one. Anything else — a network built by New, a
// topology edited since — is the same walk with nothing to repeat. Either
// way the result is what ExportFull yields, value for value, and it becomes
// the network's base.
func (n *Network) ExportShared() (*NetState, Shared, error) {
	base := n.base
	if base != nil && !n.Topo.Equal(base.Topo) {
		base = nil
	}
	st, sh, err := n.export(base)
	if err != nil {
		return nil, Shared{}, err
	}
	n.base, n.sessDirty = st, false
	for i, node := range n.order {
		node.baseIdx = i
		node.Speaker.MarkClean()
	}
	return st, sh, nil
}

// ExportFull exports every node afresh and clones the topology, whatever the
// network's base, and leaves the base alone: what ExportShared does when it
// has nothing to repeat, kept callable as the oracle it is tested against.
func (n *Network) ExportFull() (*NetState, error) {
	st, _, err := n.export(nil)
	return st, err
}

// export builds the state, repeating from base (nil: nothing) the topology,
// the records of untouched nodes and, when no session moved, the session
// tables.
func (n *Network) export(base *NetState) (*NetState, Shared, error) {
	for _, k := range n.eng.queue {
		if n.eng.slab[k.slot].fn != nil {
			return nil, Shared{}, fmt.Errorf("fabric: pending control event at t=%v; checkpoints are only consistent when the queue holds pure message deliveries (quiescent points and convergence phases)", time.Duration(k.at))
		}
	}
	st := &NetState{
		Seed:        n.opts.Seed,
		BaseLatency: n.opts.BaseLatency,
		Jitter:      n.opts.Jitter,
		Now:         n.eng.now,
		Seq:         n.eng.seq,
		Processed:   n.eng.processed,
		RNGDraws:    n.eng.rng.Draws(),
	}
	if base != nil {
		st.Topo = base.Topo
	} else {
		st.Topo = n.Topo.Clone()
	}

	if len(n.eng.queue) > 0 {
		keys := slices.Clone(n.eng.queue)
		slices.SortFunc(keys, compareKeys)
		st.Queue = make([]DeliveryState, len(keys))
		for i, k := range keys {
			ev := &n.eng.slab[k.slot]
			st.Queue[i] = DeliveryState{
				At:      k.at,
				Seq:     k.seq,
				Session: string(ev.sess.id),
				To:      string(ev.sess.endID(ev.to)),
				Epoch:   ev.epoch,
				Update:  ev.u,
			}
		}
	}

	n.exportOrder()
	if base != nil && !n.sessDirty {
		st.Sessions, st.FIFO = base.Sessions, base.FIFO
	} else {
		if len(n.sessOrder) > 0 { // none is nil, as a decoded state has it
			st.Sessions = make([]SessionState, len(n.sessOrder))
		}
		for i, s := range n.sessOrder {
			st.Sessions[i] = SessionState{ID: string(s.id), Up: s.up, Epoch: s.epoch}
		}
		for _, f := range n.fifoOrder {
			if at := f.sess.fifo[f.dir]; at != 0 {
				st.FIFO = append(st.FIFO, FIFOState{Key: f.key, At: at})
			}
		}
	}
	sh := Shared{Base: base}
	if base != nil {
		sh.Nodes = make([]int, len(n.order))
	}
	if len(n.order) > 0 {
		st.Nodes = make([]NodeState, len(n.order))
	}
	for i, node := range n.order {
		if base != nil {
			if node.baseIdx >= 0 && !node.Speaker.Dirty() {
				sh.Nodes[i] = node.baseIdx
				st.Nodes[i] = base.Nodes[node.baseIdx]
				continue
			}
			sh.Nodes[i] = -1
		}
		sp, err := node.Speaker.ExportState()
		if err != nil {
			return nil, Shared{}, fmt.Errorf("fabric: %w", err)
		}
		st.Nodes[i] = NodeState{Device: string(node.Device.ID), Up: node.up, VNow: node.vnow, Speaker: sp}
	}
	return st, sh, nil
}

// fifoSlot is one (session, receiver) FIFO slot under its rendered key.
type fifoSlot struct {
	sess *session
	dir  uint8
	key  string // "<session>><receiver>"
}

// exportOrder builds, once, the orders a state lists things in: nodes by
// device, sessions by ID, FIFO slots by rendered key — which is not session
// order, a session ID may be a prefix of another. The device and session sets
// never change after construction.
func (n *Network) exportOrder() {
	if n.order != nil {
		return
	}
	n.order = make([]*Node, 0, len(n.nodes))
	for _, node := range n.nodes {
		n.order = append(n.order, node)
	}
	slices.SortFunc(n.order, func(x, y *Node) int { return strings.Compare(string(x.Device.ID), string(y.Device.ID)) })
	n.sessOrder = make([]*session, 0, len(n.sessions))
	n.fifoOrder = make([]fifoSlot, 0, 2*len(n.sessions))
	for _, s := range n.sessions {
		n.sessOrder = append(n.sessOrder, s)
		for dir := uint8(0); dir < 2; dir++ {
			n.fifoOrder = append(n.fifoOrder, fifoSlot{sess: s, dir: dir, key: string(s.id) + ">" + string(s.endID(dir))})
		}
	}
	slices.SortFunc(n.sessOrder, func(x, y *session) int { return strings.Compare(string(x.id), string(y.id)) })
	slices.SortFunc(n.fifoOrder, func(x, y fifoSlot) int { return strings.Compare(x.key, y.key) })
}

// RestoreOptions tunes a restore.
type RestoreOptions struct {
	// FullRecompute restores every speaker onto the full-recompute oracle,
	// as Options.FullRecompute does at construction. Mode is not part of
	// the captured state (snapshots are byte-identical across modes), so a
	// restore may freely pick either; false uses the process default.
	FullRecompute bool

	// Topo, when non-nil, is adopted as the restored network's topology
	// instead of a clone of the state's master. The network takes ownership
	// — callers forking one state many times pass a fresh Clone() per
	// restore. It must describe the same topology the state was captured
	// on; the device/session cross-checks below enforce the shape.
	Topo *topo.Topology
}

// NewFromState rebuilds a Network from a checkpoint. Each call yields an
// independent network, which is what makes cheap what-if forking possible:
// decode once, restore N times, diverge each branch freely. What a network
// edits in place it gets a copy of (topology, queue, FIBs, match caches);
// what the engine treats as immutable it shares read-only with the state and
// every sibling restore: AS paths and community lists, and each speaker's
// Adj-RIB-In and Adj-RIB-Out columns, which the speaker copies before its
// first write to one (bgp.NewSpeakerFromState). Nothing may write to st once
// it has been restored from: the network also keeps st as its base, and its
// next export repeats st's records for the nodes nothing touched
// (ExportShared). Taps, hooks, and perturbers start detached; callers
// re-attach their own wiring.
func NewFromState(st *NetState, opts RestoreOptions) (*Network, error) {
	t := opts.Topo
	if t == nil {
		t = st.Topo.Clone()
	}
	n := &Network{
		Topo: t,
		opts: Options{
			Seed:          st.Seed,
			BaseLatency:   st.BaseLatency,
			Jitter:        st.Jitter,
			FullRecompute: opts.FullRecompute,
		},
		eng: &engine{
			now:       st.Now,
			seq:       st.Seq,
			seed:      st.Seed,
			rng:       newSeededRNG(st.Seed, st.RNGDraws),
			processed: st.Processed,
		},
		nodes:    make(map[topo.DeviceID]*Node, len(st.Nodes)),
		sessions: make(map[bgp.SessionID]*session, len(st.Sessions)),
		base:     st,
	}
	n.eng.net = n

	now := n.Now
	for i, ns := range st.Nodes {
		d := t.Device(topo.DeviceID(ns.Device))
		if d == nil {
			return nil, fmt.Errorf("fabric: state names unknown device %q", ns.Device)
		}
		node := &Node{Device: d, up: ns.Up, vnow: ns.VNow, baseIdx: i}
		sp, err := bgp.NewSpeakerFromState(ns.Speaker, now)
		if err != nil {
			return nil, fmt.Errorf("fabric: restore %s: %w", ns.Device, err)
		}
		if opts.FullRecompute {
			sp.SetFullRecompute(true)
		}
		node.Speaker = sp
		n.nodes[d.ID] = node
	}
	if len(n.nodes) != t.NumDevices() {
		return nil, fmt.Errorf("fabric: state has %d devices, topology has %d", len(n.nodes), t.NumDevices())
	}

	for li, l := range t.Links() {
		s := n.newSession(li, l)
		n.sessions[s.id] = s
	}
	if len(st.Sessions) != len(n.sessions) {
		return nil, fmt.Errorf("fabric: state has %d sessions, topology has %d links", len(st.Sessions), len(n.sessions))
	}
	for _, ss := range st.Sessions {
		s := n.sessions[bgp.SessionID(ss.ID)]
		if s == nil {
			return nil, fmt.Errorf("fabric: state names unknown session %q", ss.ID)
		}
		s.up = ss.Up
		s.epoch = ss.Epoch
	}

	for _, f := range st.FIFO {
		s, dir := n.parseFIFOKey(f.Key)
		if s == nil {
			return nil, fmt.Errorf("fabric: FIFO entry %q names no session end", f.Key)
		}
		s.fifo[dir] = f.At
	}

	// A queue sorted by (At, Seq) is a valid heap. Well-formed state arrives
	// sorted; it is sorted again rather than trusted.
	n.eng.queue = make([]qkey, len(st.Queue))
	n.eng.slab = make([]event, len(st.Queue))
	for i := range st.Queue {
		q := &st.Queue[i]
		s := n.sessions[bgp.SessionID(q.Session)]
		if s == nil {
			return nil, fmt.Errorf("fabric: queued delivery on unknown session %q", q.Session)
		}
		to := topo.DeviceID(q.To)
		if to != s.a && to != s.b {
			return nil, fmt.Errorf("fabric: queued delivery on session %q to %q, which is not one of its ends", q.Session, q.To)
		}
		n.eng.queue[i] = qkey{at: q.At, seq: q.Seq, slot: int32(i)}
		n.eng.slab[i] = event{sess: s, to: s.end(to), epoch: q.Epoch, u: q.Update}
	}
	slices.SortFunc(n.eng.queue, compareKeys)
	return n, nil
}

// parseFIFOKey resolves a "<session>><receiver>" key to the session and
// the direction index of the receiver; nil when the key names no session
// end. Every '>' is tried as the separator, so no assumption is made about
// the characters of session and device names.
func (n *Network) parseFIFOKey(key string) (*session, uint8) {
	for i := 0; i < len(key); i++ {
		if key[i] != '>' {
			continue
		}
		s := n.sessions[bgp.SessionID(key[:i])]
		if s == nil {
			continue
		}
		switch topo.DeviceID(key[i+1:]) {
		case s.a:
			return s, 0
		case s.b:
			return s, 1
		}
	}
	return nil, 0
}

// Step processes up to maxEvents pending events (<=0 means the default
// budget) and reports how many ran and whether the queue drained — the
// checkpointing cut point for mid-run snapshots.
func (n *Network) Step(maxEvents int64) (int64, bool) {
	return n.eng.run(maxEvents)
}

// PendingEvents reports how many events are queued.
func (n *Network) PendingEvents() int { return len(n.eng.queue) }

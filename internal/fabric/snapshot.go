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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// Topo is frozen (topo.Topology.Freeze) and shared by pointer: the
	// exporting network's own, which every network restored from the state
	// adopts and hands on to its own exports.
	Topo *topo.Topology

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

	// frame is Topo's frame (see frame): the exporting network's, which its
	// later exports and its forks' share, or the one Check derived. A state
	// built any other way has none, and each restore derives one.
	frame *frame
}

// ErrDuplicateDevice reports a NetState whose Nodes list one device twice: no
// network exports one, and restoring it would let the last record win.
var ErrDuplicateDevice = errors.New("fabric: device listed twice in state")

// Check refuses a state NewFromState would refuse for what it repeats — a
// device (ErrDuplicateDevice), a peer session or a FIB prefix — or for a
// speaker record naming a session it has no peer for, and readies it for
// cheap restores: it records which speaker records and FIB tables can be
// adopted in place (bgp.SpeakerState.Check) and derives Topo's frame out of
// the strings the state holds. A decoder calls it on each state it makes,
// before anyone else sees the state; an exported state needs none.
func (st *NetState) Check() error {
	sorted := true
	for i := 1; i < len(st.Nodes) && sorted; i++ {
		sorted = st.Nodes[i-1].Device < st.Nodes[i].Device
	}
	if !sorted {
		seen := make(map[string]bool, len(st.Nodes))
		for i := range st.Nodes {
			if seen[st.Nodes[i].Device] {
				return fmt.Errorf("%w: %q", ErrDuplicateDevice, st.Nodes[i].Device)
			}
			seen[st.Nodes[i].Device] = true
		}
	}
	for i := range st.Nodes {
		if err := st.Nodes[i].Speaker.Check(); err != nil {
			return fmt.Errorf("fabric: %s: %w", st.Nodes[i].Device, err)
		}
	}
	if st.Topo != nil {
		st.frame = newFrame(st.Topo, st)
	}
	return nil
}

// Shared says what an exported state repeats, unchanged, from the state its
// network was restored from or last exported as.
type Shared struct {
	// Base is that state; nil when the network had none, and then no record
	// is shared.
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
// rest of it. A network built by New and not yet exported has no base: the
// same walk with nothing to repeat. Either way the result is what ExportFull
// yields, value for value, and it becomes the network's base.
func (n *Network) ExportShared() (*NetState, Shared, error) {
	st, sh, err := n.export(n.base)
	if err != nil {
		return nil, Shared{}, err
	}
	n.base, n.sessDirty = st, false
	for i := range n.nodes {
		n.nodes[i].baseIdx = i
		n.nodes[i].Speaker.MarkClean()
	}
	return st, sh, nil
}

// ExportFull exports every node afresh, whatever the network's base, and
// leaves the base alone: what ExportShared does when it has nothing to
// repeat, kept callable as the oracle it is tested against.
func (n *Network) ExportFull() (*NetState, error) {
	st, _, err := n.export(nil)
	return st, err
}

// export builds the state on the network's frozen topology and frame,
// repeating from base (nil: nothing) the records of untouched nodes and, when
// no session moved, the session tables.
func (n *Network) export(base *NetState) (*NetState, Shared, error) {
	for _, k := range n.eng.heap {
		if k.fn != nil {
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
		Topo:        n.Topo,
		frame:       n.frame, // a restore from st takes the frame, not derives it
	}

	if n.eng.pending > 0 {
		keys := n.eng.queued()
		st.Queue = make([]DeliveryState, len(keys))
		for i, k := range keys {
			ev := n.eng.slot(k.slot)
			s := &n.sess[ev.sess]
			st.Queue[i] = DeliveryState{
				At:      k.at,
				Seq:     k.seq,
				Session: string(s.id),
				To:      string(s.endID(ev.to)),
				Epoch:   int(ev.epoch),
				Update:  ev.u,
			}
		}
	}

	f := n.frame
	if base != nil && !n.sessDirty {
		st.Sessions, st.FIFO = base.Sessions, base.FIFO
	} else {
		if len(f.sessOrder) > 0 { // none is nil, as a decoded state has it
			st.Sessions = make([]SessionState, len(f.sessOrder))
		}
		for i, li := range f.sessOrder {
			s := &n.sess[li]
			st.Sessions[i] = SessionState{ID: string(s.id), Up: s.up, Epoch: int(s.epoch)}
		}
		st.FIFO = n.exportFIFO()
	}
	sh := Shared{Base: base}
	if base != nil {
		sh.Nodes = make([]int, len(n.nodes))
	}
	if len(n.nodes) > 0 {
		st.Nodes = make([]NodeState, len(n.nodes))
	}
	for i := range n.nodes {
		node := &n.nodes[i]
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

// exportFIFO lists the nonzero FIFO slots in key order (see frame). A key
// is the network's base's string where the base lists that slot, which it
// does in the same order, and rendered otherwise.
func (n *Network) exportFIFO() []FIFOState {
	live := 0
	for li := range n.sess {
		for _, at := range n.sess[li].fifo {
			if at != 0 {
				live++
			}
		}
	}
	if live == 0 {
		return nil
	}
	var have []FIFOState
	if n.base != nil {
		have = n.base.FIFO
	}
	out := make([]FIFOState, 0, live)
	j := 0
	for _, li := range n.frame.sessOrder {
		s := &n.sess[li]
		for _, dir := range n.frame.dirs(li) {
			to, key := s.endID(dir), ""
			if j < len(have) && isFIFOKey(have[j].Key, s.id, to) {
				key = have[j].Key
				j++
			}
			if at := s.fifo[dir]; at != 0 {
				if key == "" {
					key = string(s.id) + ">" + string(to)
				}
				out = append(out, FIFOState{Key: key, At: at})
			}
		}
	}
	return out
}

// RestoreOptions tunes a restore.
type RestoreOptions struct {
	// FullRecompute restores every speaker onto the full-recompute oracle,
	// as Options.FullRecompute does at construction. Mode is not part of
	// the captured state (snapshots are byte-identical across modes), so a
	// restore may freely pick either; false uses the process default.
	FullRecompute bool

	// Topo is ignored: a restore adopts the state's frozen topology. It
	// stays declared only because bench/rigs.go and bench/w_whatif.go
	// (frozen outside a benchmark PR) set it; it goes with their next
	// change.
	Topo *topo.Topology
}

// NewFromState rebuilds a Network from a checkpoint. Each call yields an
// independent network, which is what makes cheap what-if forking possible:
// decode once, restore N times, diverge each branch freely.
//
// A restore builds only what the fork will touch. It copies what a network
// edits in place and every fork needs: the event queue, the session and FIFO
// tables. It shares, read-only, with the state and every sibling restore
// what the engine treats as immutable: the frozen topology, AS paths and
// community lists, each speaker's compiled RPA program, and the frame — the
// session IDs and the node and session orders — which the state carries
// (its exporter's, or the one Check derived out of the strings the state
// holds; a state with none gets one derived here). It defers the rest to
// first use: each speaker keeps its record and builds its maps and RPA
// evaluator on its first Touch or map read, adopting its Adj-RIB-In and
// Adj-RIB-Out columns by reference and copying one before its first write to
// it (bgp.NewSpeakerFromState); each FIB answers lookups out of its record
// until its first write (fib.NewFromState). A record the state does not mark
// as fit for that (see Check) is checked here, and one that fails those
// cheap checks is built at once, as every record used to be.
//
// Nothing may write to st once it has been restored from: the network also
// keeps st as its base, and its next export repeats st's records for the
// nodes nothing touched (ExportShared). Taps, hooks, and perturbers start
// detached; callers re-attach their own wiring. A state that lists a device
// twice is ErrDuplicateDevice.
func NewFromState(st *NetState, opts RestoreOptions) (*Network, error) {
	t := st.Topo
	f := st.frame
	if f == nil {
		f = newFrame(t, st)
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
			free:      none,
		},
		nodes: make([]Node, len(f.devs)),
		frame: f,
		base:  st,
	}
	n.eng.net = n

	now := n.Now
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		k := int32(i)
		if i >= len(f.devs) || string(f.devs[i]) != ns.Device {
			if k = f.dev(topo.DeviceID(ns.Device)); k < 0 {
				return nil, fmt.Errorf("fabric: state names unknown device %q", ns.Device)
			}
		}
		node := &n.nodes[k]
		if node.Speaker != nil {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateDevice, ns.Device)
		}
		sp, err := bgp.NewSpeakerFromState(&ns.Speaker, now)
		if err != nil {
			return nil, fmt.Errorf("fabric: restore %s: %w", ns.Device, err)
		}
		if opts.FullRecompute {
			sp.SetFullRecompute(true)
		}
		*node = Node{Device: t.Device(f.devs[k]), Speaker: sp, up: ns.Up, vnow: ns.VNow, baseIdx: i}
	}
	if len(st.Nodes) != len(f.devs) {
		return nil, fmt.Errorf("fabric: state has %d devices, topology has %d", len(st.Nodes), len(f.devs))
	}

	links := t.Links()
	n.buildSessions(links)
	if len(st.Sessions) != len(links) {
		return nil, fmt.Errorf("fabric: state has %d sessions, topology has %d links", len(st.Sessions), len(links))
	}
	for i, ss := range st.Sessions {
		var s *session
		if li := f.sessOrder[i]; string(f.ids[li]) == ss.ID {
			s = &n.sess[li]
		} else if s = n.session(bgp.SessionID(ss.ID)); s == nil {
			return nil, fmt.Errorf("fabric: state names unknown session %q", ss.ID)
		}
		if !fitsEpoch(ss.Epoch) {
			return nil, fmt.Errorf("fabric: session %q epoch %d out of range", ss.ID, ss.Epoch)
		}
		s.up = ss.Up
		s.epoch = int32(ss.Epoch)
	}

	for _, fe := range st.FIFO {
		s, dir := n.parseFIFOKey(fe.Key)
		if s == nil {
			return nil, fmt.Errorf("fabric: FIFO entry %q names no session end", fe.Key)
		}
		s.fifo[dir] = fe.At
	}

	// Well-formed state arrives sorted by (At, Seq), and then every delivery
	// follows its direction's tail; it is sorted again rather than trusted.
	queue := st.Queue
	if !slices.IsSortedFunc(queue, compareDeliveries) {
		queue = slices.Clone(queue)
		slices.SortFunc(queue, compareDeliveries)
	}
	for i := range queue {
		q := &queue[i]
		li := f.link(bgp.SessionID(q.Session))
		if li < 0 {
			return nil, fmt.Errorf("fabric: queued delivery on unknown session %q", q.Session)
		}
		s := &n.sess[li]
		to := topo.DeviceID(q.To)
		if to != s.a && to != s.b {
			return nil, fmt.Errorf("fabric: queued delivery on session %q to %q, which is not one of its ends", q.Session, q.To)
		}
		if !fitsEpoch(q.Epoch) {
			return nil, fmt.Errorf("fabric: queued delivery on session %q epoch %d out of range", q.Session, q.Epoch)
		}
		n.eng.enqueue(q.At, q.Seq, &event{sess: int32(li), to: s.end(to), epoch: int32(q.Epoch), u: q.Update})
	}
	return n, nil
}

// compareDeliveries is the (At, Seq) order of queued deliveries.
func compareDeliveries(x, y DeliveryState) int {
	if c := cmp.Compare(x.At, y.At); c != 0 {
		return c
	}
	return cmp.Compare(x.Seq, y.Seq)
}

// fitsEpoch reports whether a session epoch fits the engine's int32, as
// every decoded one does.
func fitsEpoch(e int) bool { return e >= math.MinInt32 && e <= math.MaxInt32 }

// parseFIFOKey resolves a "<session>><receiver>" key to the session and
// the direction index of the receiver; nil when the key names no session
// end. Every '>' is tried as the separator, so no assumption is made about
// the characters of session and device names.
func (n *Network) parseFIFOKey(key string) (*session, uint8) {
	for i := 0; i < len(key); i++ {
		if key[i] != '>' {
			continue
		}
		s := n.session(bgp.SessionID(key[:i]))
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

// PendingEvents reports how many events are queued: every delivery and
// control callback, whether the heap holds its key or it waits behind its
// direction's head.
func (n *Network) PendingEvents() int { return n.eng.pending }

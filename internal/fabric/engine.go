// Package fabric emulates a data center fleet: every topology device gets a
// bgp.Speaker, every link a BGP session, and all interaction flows through a
// deterministic discrete-event engine. Per-session message latency includes
// seeded jitter — the asynchrony that produces the paper's Section 3
// transients (first/last-router funneling, WCMP next-hop-group explosion) —
// while keeping every run exactly reproducible.
//
// The engine is one sequential event loop: events run one at a time in
// (time, seq) order on the calling goroutine. See DESIGN.md, "One event
// loop".
//
// This package is the substitute for Meta's production fleet (see
// DESIGN.md, substitution table).
package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"centralium/internal/bgp"
)

// event is one queued message delivery. A delivery is structured (session,
// direction, UPDATE) rather than an opaque closure, which is what lets a
// checkpoint serialize the queue. Events live in the engine's slab, which
// never moves; the heap orders keys that point at them (see engine).
type event struct {
	// at and seq are the delivery's ordering key. The heap holds it for a
	// direction's head and a delivery out of its direction's order only.
	at, seq int64
	// next is, while the delivery waits, the slot of the delivery chained
	// behind it on its direction (none: it is the tail); while the slot is
	// vacant, the next vacant slot.
	next int32
	// sess is the session's index in Network.sess; to is its receiving end:
	// 0 delivers to sess.a, 1 to sess.b.
	sess int32
	// epoch is the session incarnation the message was sent under; if the
	// session bounced while the message was in flight it dies with its TCP
	// connection instead of being delivered into the new incarnation.
	epoch int32
	to    uint8
	u     bgp.Update
}

// none is the empty slot index: no successor, no tail, no vacant slot.
const none int32 = -1

// qkey is one heap entry: the ordering key of a control callback (fn) or
// of the delivery in slot.
type qkey struct {
	at   int64 // virtual nanoseconds
	seq  int64 // tie-break for equal timestamps: FIFO
	fn   func()
	slot int32
}

func (k qkey) before(o qkey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// compareKeys is the (at, seq) order as a three-way comparison.
func compareKeys(x, y qkey) int {
	switch {
	case x.before(y):
		return -1
	case y.before(x):
		return 1
	}
	return 0
}

// engine is the virtual clock and event queue.
//
// Deliveries on one (session, direction) are sent in strictly increasing
// (at, seq) order: Network.routeMsgs clamps each one behind the direction's
// last (session.fifo), and seq only grows. So the heap holds one key per
// direction with deliveries waiting, its head, and the rest wait in a FIFO
// chain behind it (event.next, with the tail on session.tail). Popping a
// head puts its successor's key in its place. A delivery that does not
// follow its direction's tail — one pushed into the past, or restored from
// a hand-built state — keeps a key of its own. Every queued event is thus
// either a heap key or behind one with a smaller key, and the pop order is
// exactly the (at, seq) order of a heap holding every event. Control
// callbacks carry their function in their key and take no slot.
type engine struct {
	now int64
	seq int64
	// heap is a binary min-heap of keys, sifted by hand.
	heap []qkey
	// segs is the delivery slab: segment k holds segLen(k) slots, and a
	// segment once allocated never moves, so a delivery runs in place.
	// used counts the slots ever handed out, free heads the list of vacant
	// ones (threaded through event.next), pending counts queued events.
	// Heap and slab are dropped when the queue drains, so a quiescent
	// network does not hold the memory of its busiest moment.
	segs    [][]event
	used    int32
	free    int32
	pending int
	seed    int64
	rng     *seededRNG

	processed int64
	hooks     []func(now int64)

	// net executes deliveries and holds their sessions (the engine owns
	// ordering, the network owns semantics).
	net *Network
}

func newEngine(seed int64) *engine {
	return &engine{seed: seed, rng: newSeededRNG(seed, 0), free: none}
}

// segLen is the number of slots of slab segment k: 16, 32, ... 1024, then
// 1024 each.
func segLen(k int) int { return 16 << min(k, 6) }

// locate maps a slot to its segment and its offset there. Segment k starts
// at slot 16<<k - 16 up to the first 1024-slot segment (slot 1008), and
// every 1024 slots after.
func locate(slot int32) (seg, off int) {
	t := int(slot) + 16
	if t >= 1024 {
		return 5 + t>>10, t & 1023
	}
	seg = bits.Len(uint(t)) - 5
	return seg, t - 16<<seg
}

// slot returns the event in slot i.
func (e *engine) slot(i int32) *event {
	seg, off := locate(i)
	return &e.segs[seg][off]
}

// alloc hands out a vacant slot, growing the slab by a segment when every
// slot is taken.
func (e *engine) alloc() int32 {
	if i := e.free; i != none {
		e.free = e.slot(i).next
		return i
	}
	i := e.used
	if seg, _ := locate(i); seg == len(e.segs) {
		e.segs = append(e.segs, make([]event, segLen(seg)))
	}
	e.used++
	return i
}

// release vacates a slot (dropping its references).
func (e *engine) release(i int32) {
	*e.slot(i) = event{next: e.free}
	e.free = i
}

// push enqueues a delivery at the given absolute virtual time (clamped to
// now), under the next seq.
func (e *engine) push(at int64, ev *event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.enqueue(at, e.seq, ev)
}

// enqueue queues a copy of a delivery under the key (at, seq): behind its
// direction's tail when it follows it, under a heap key otherwise.
func (e *engine) enqueue(at, seq int64, ev *event) {
	i := e.alloc()
	s := e.slot(i)
	*s = *ev
	s.at, s.seq, s.next = at, seq, none
	e.pending++
	tail := &e.net.sess[ev.sess].tail[ev.to]
	if *tail != none {
		if t := e.slot(*tail); t.at < at || t.at == at && t.seq < seq {
			t.next = i
			*tail = i
			return
		}
	} else {
		*tail = i
	}
	e.siftUp(qkey{at: at, seq: seq, slot: i})
}

// schedule enqueues fn at the given absolute virtual time (clamped to now).
func (e *engine) schedule(at int64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.pending++
	e.siftUp(qkey{at: at, seq: e.seq, fn: fn, slot: none})
}

// after enqueues fn delay nanoseconds from now.
func (e *engine) after(delay int64, fn func()) { e.schedule(e.now+delay, fn) }

// siftUp adds k to the heap.
func (e *engine) siftUp(k qkey) {
	q := append(e.heap, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	e.heap = q
}

// replaceTop puts k in the root's place and sifts it down.
func (e *engine) replaceTop(k qkey) {
	q := e.heap
	n := len(q)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(k) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = k
}

// removeTop drops the root key.
func (e *engine) removeTop() {
	n := len(e.heap) - 1
	k := e.heap[n]
	e.heap[n] = qkey{}
	e.heap = e.heap[:n]
	if n > 0 {
		e.replaceTop(k)
	}
}

// queued returns the key of every queued event, in (at, seq) order.
func (e *engine) queued() []qkey {
	out := make([]qkey, 0, e.pending)
	for _, k := range e.heap {
		out = append(out, k)
		if k.fn != nil {
			continue
		}
		for i := e.slot(k.slot).next; i != none; {
			ev := e.slot(i)
			out = append(out, qkey{at: ev.at, seq: ev.seq, slot: i})
			i = ev.next
		}
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// DefaultMaxEvents bounds a single Run call; hitting it indicates a
// non-converging protocol bug rather than a big workload.
const DefaultMaxEvents = 5_000_000

// noDeadline disables the deadline check in runCore.
const noDeadline = math.MaxInt64

// run processes events until the queue is empty or maxEvents is hit; it
// returns the number processed and whether the queue drained.
func (e *engine) run(maxEvents int64) (int64, bool) {
	n := e.runCore(noDeadline, maxEvents)
	return n, e.pending == 0
}

// runUntil processes events with timestamps <= deadline.
func (e *engine) runUntil(deadline int64, maxEvents int64) int64 {
	n := e.runCore(deadline, maxEvents)
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// runCore is the event loop: pop the earliest event, run it, then call the
// per-event hooks (OnEvent), which therefore observe fleet state between
// every two events.
func (e *engine) runCore(deadline int64, maxEvents int64) int64 {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	var n int64
	for e.pending > 0 && n < maxEvents && e.heap[0].at <= deadline {
		e.runOne()
		n++
		e.processed++
		for _, h := range e.hooks {
			h(e.now)
		}
	}
	if e.pending == 0 {
		e.heap, e.segs, e.used, e.free = nil, nil, 0, none
	}
	return n
}

// runOne pops the earliest event and runs it. A callback leaves the heap
// before it runs, since it may re-enter the loop. A delivery hands its
// place in the heap to its successor and runs in place (the slab never
// moves, and its slot stays taken while it runs); its slot is vacated after.
func (e *engine) runOne() {
	k := e.heap[0]
	e.now = k.at
	e.pending--
	if k.fn != nil {
		e.removeTop()
		k.fn()
		return
	}
	ev := e.slot(k.slot)
	if ev.next != none {
		nx := e.slot(ev.next)
		e.replaceTop(qkey{at: nx.at, seq: nx.seq, slot: ev.next})
	} else {
		e.removeTop()
		if tail := &e.net.sess[ev.sess].tail[ev.to]; *tail == k.slot {
			*tail = none
		}
	}
	e.net.deliver(ev)
	e.release(k.slot)
}

// Duration helpers: the virtual clock counts nanoseconds.
func ns(d time.Duration) int64 { return int64(d) }

// String renders the clock for debug output.
func (e *engine) String() string {
	return fmt.Sprintf("t=%s queued=%d processed=%d",
		time.Duration(e.now), e.pending, e.processed)
}

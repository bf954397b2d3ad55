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
	"slices"
	"time"

	"centralium/internal/bgp"
)

// event is one scheduled engine entry: either a control callback (fn) or a
// message delivery. A delivery is structured (session, direction, UPDATE)
// rather than an opaque closure, which is what lets a checkpoint serialize
// the queue. Events live in the engine's slab; the queue orders small keys
// that point at them.
type event struct {
	fn func() // control callback; nil for a delivery

	sess *session
	// to is the receiving end of sess: 0 delivers to sess.a, 1 to sess.b.
	to uint8
	// epoch is the session incarnation the message was sent under; if the
	// session bounced while the message was in flight it dies with its TCP
	// connection instead of being delivered into the new incarnation.
	epoch int
	u     bgp.Update
}

// qkey is one queue entry: the ordering key plus the slab slot of its event.
type qkey struct {
	at   int64 // virtual nanoseconds
	seq  int64 // tie-break for equal timestamps: FIFO
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
type engine struct {
	now int64
	seq int64
	// queue is a binary min-heap of keys, sifted by hand; slab holds the
	// events, free the vacant slots. All three are dropped when the queue
	// drains, so a quiescent network does not hold the memory of its
	// busiest moment.
	queue []qkey
	slab  []event
	free  []int32
	seed  int64
	rng   *seededRNG

	processed int64
	hooks     []func(now int64)

	// net executes deliveries (the engine owns ordering, the network owns
	// semantics).
	net *Network
}

func newEngine(seed int64) *engine {
	return &engine{seed: seed, rng: newSeededRNG(seed, 0)}
}

// push enqueues ev at the given absolute virtual time (clamped to now).
func (e *engine) push(at int64, ev event) {
	if at < e.now {
		at = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = ev
	} else {
		if len(e.slab) == cap(e.slab) {
			// Double, rather than append's 1.25x for large slices: the slab
			// is the engine's biggest allocation and regrowing it dominated
			// the bytes a convergence allocates.
			e.slab = slices.Grow(e.slab, max(len(e.slab), 16))
		}
		slot = int32(len(e.slab))
		e.slab = append(e.slab, ev)
	}
	e.seq++
	k := qkey{at: at, seq: e.seq, slot: slot}
	// Sift up.
	q := append(e.queue, k)
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
	e.queue = q
}

// pop removes and returns the earliest key. Its slab slot stays occupied
// until release.
func (e *engine) pop() qkey {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	k := q[n]
	q = q[:n]
	// Sift the former last key down from the root.
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
	if n > 0 {
		q[i] = k
	}
	e.queue = q
	return top
}

// release vacates a popped event's slot (dropping its references).
func (e *engine) release(slot int32) {
	e.slab[slot] = event{}
	e.free = append(e.free, slot)
}

// schedule enqueues fn at the given absolute virtual time (clamped to now).
func (e *engine) schedule(at int64, fn func()) { e.push(at, event{fn: fn}) }

// after enqueues fn delay nanoseconds from now.
func (e *engine) after(delay int64, fn func()) { e.schedule(e.now+delay, fn) }

// DefaultMaxEvents bounds a single Run call; hitting it indicates a
// non-converging protocol bug rather than a big workload.
const DefaultMaxEvents = 5_000_000

// noDeadline disables the deadline check in runCore.
const noDeadline = math.MaxInt64

// run processes events until the queue is empty or maxEvents is hit; it
// returns the number processed and whether the queue drained.
func (e *engine) run(maxEvents int64) (int64, bool) {
	n := e.runCore(noDeadline, maxEvents)
	return n, len(e.queue) == 0
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
	for len(e.queue) > 0 && n < maxEvents && e.queue[0].at <= deadline {
		e.runOne(e.pop())
		n++
		e.processed++
		for _, h := range e.hooks {
			h(e.now)
		}
	}
	if len(e.queue) == 0 {
		e.queue, e.slab, e.free = nil, nil, nil
	}
	return n
}

// runOne executes one popped event. The event is copied out and its slot
// vacated first: what it schedules may reuse the slot or move the slab, and
// a callback may re-enter the loop.
func (e *engine) runOne(k qkey) {
	ev := e.slab[k.slot]
	e.release(k.slot)
	e.now = k.at
	if ev.fn != nil {
		ev.fn()
	} else {
		e.net.deliver(&ev)
	}
}

// Duration helpers: the virtual clock counts nanoseconds.
func ns(d time.Duration) int64 { return int64(d) }

// String renders the clock for debug output.
func (e *engine) String() string {
	return fmt.Sprintf("t=%s queued=%d processed=%d",
		time.Duration(e.now), len(e.queue), e.processed)
}

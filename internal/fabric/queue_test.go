package fabric

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// Tests for the event queue: per-direction delivery chains behind one heap
// key each, in a slab of segments that never move (see engine).

// refItem is one event of the reference queue.
type refItem struct {
	at, seq  int64
	callback bool
	dir      int // 2*session index + receiving end, for a delivery
	loose    bool
}

// refHeap is the reference: every queued event in one container/heap.
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// queueOracle drives a network's engine and the reference side by side.
type queueOracle struct {
	t   *testing.T
	rng *rand.Rand
	n   *Network
	ref refHeap
	seq int64
	// last is the latest at pushed in order per direction, as session.fifo
	// keeps it for routeMsgs.
	last      []int64
	callbacks int // pending callbacks in ref
	loose     int // pending deliveries pushed behind a later one on their direction
	popped    int
}

func (o *queueOracle) clamp(at int64) int64 { return max(at, o.n.eng.now) }

// deliver queues one delivery on direction dir at at, in both queues. Its
// epoch is stale, so the network drops it when it runs.
func (o *queueOracle) deliver(dir int, at int64) {
	at = o.clamp(at)
	o.seq++
	loose := false
	for _, it := range o.ref {
		if !it.callback && it.dir == dir && it.at > at {
			loose = true
		}
	}
	if loose {
		o.loose++
	}
	heap.Push(&o.ref, refItem{at: at, seq: o.seq, dir: dir, loose: loose})
	s := &o.n.sess[dir/2]
	o.n.eng.push(at, &event{sess: int32(dir / 2), to: uint8(dir % 2), epoch: s.epoch - 1})
}

// inOrder queues a delivery the way routeMsgs does: behind the direction's
// last one.
func (o *queueOracle) inOrder(dir int, delay int64) {
	at := max(o.n.eng.now+delay, o.last[dir]+1)
	o.last[dir] = at
	o.deliver(dir, at)
}

// callback queues a control callback that checks its own time and, below
// depth 2, queues more work when it runs.
func (o *queueOracle) callback(at int64, depth int) {
	at = o.clamp(at)
	o.seq++
	o.callbacks++
	heap.Push(&o.ref, refItem{at: at, seq: o.seq, callback: true})
	o.n.eng.schedule(at, func() {
		if now := o.n.eng.now; now != at {
			o.t.Fatalf("callback due at %d ran at %d", at, now)
		}
		if depth < 2 {
			o.ops(1+o.rng.Intn(3), depth+1, true)
		}
	})
}

// ops queues k random operations: mostly in-order deliveries, some behind
// their direction's tail or in the past, and callbacks when allowed.
func (o *queueOracle) ops(k, depth int, callbacks bool) {
	dirs := len(o.last)
	for range k {
		switch r := o.rng.Intn(100); {
		case r < 80:
			o.inOrder(o.rng.Intn(dirs), int64(o.rng.Intn(12)))
		case r < 92:
			o.deliver(o.rng.Intn(dirs), o.n.eng.now+int64(o.rng.Intn(8))-3)
		case callbacks:
			o.callback(o.n.eng.now+int64(o.rng.Intn(20))-2, depth)
		}
	}
}

// pop is the per-event hook: the reference pops its earliest event, and
// the engine must have run that very one and hold exactly the rest.
func (o *queueOracle) pop(now int64) {
	it := heap.Pop(&o.ref).(refItem)
	o.popped++
	if it.callback {
		o.callbacks--
	}
	if it.loose {
		o.loose--
	}
	if now != it.at {
		o.t.Fatalf("event %d ran at %d, reference %d", o.popped, now, it.at)
	}
	o.check()
}

// check compares the engine's queue with the reference, event by event,
// and bounds the heap: one key per direction with deliveries waiting, plus
// callbacks and loose deliveries.
func (o *queueOracle) check() {
	o.t.Helper()
	e := o.n.eng
	got := e.queued()
	want := slices.Clone(o.ref)
	slices.SortFunc(want, func(x, y refItem) int { return compareKeys(qkey{at: x.at, seq: x.seq}, qkey{at: y.at, seq: y.seq}) })
	if len(got) != len(want) || e.pending != len(want) || o.n.PendingEvents() != len(want) {
		o.t.Fatalf("after %d events: engine queues %d (pending %d), reference %d", o.popped, len(got), e.pending, len(want))
	}
	dirs := map[int]bool{}
	for i, k := range got {
		w := want[i]
		if k.at != w.at || k.seq != w.seq || (k.fn != nil) != w.callback {
			o.t.Fatalf("after %d events: queued event %d is (%d, %d, callback %v), reference (%d, %d, callback %v)",
				o.popped, i, k.at, k.seq, k.fn != nil, w.at, w.seq, w.callback)
		}
		if !w.callback {
			ev := e.slot(k.slot)
			if dir := 2*int(ev.sess) + int(ev.to); dir != w.dir {
				o.t.Fatalf("after %d events: delivery (%d, %d) is on direction %d, reference %d", o.popped, k.at, k.seq, dir, w.dir)
			}
			dirs[w.dir] = true
		}
	}
	// At most 2×links directions: the heap never outgrows 2×links keys plus
	// callbacks and loose deliveries.
	if bound := len(dirs) + o.callbacks + o.loose; len(e.heap) > bound {
		o.t.Fatalf("after %d events: heap holds %d keys, over %d directions + %d callbacks + %d loose",
			o.popped, len(e.heap), len(dirs), o.callbacks, o.loose)
	}
}

// run runs one chunk: to a deadline or a number of events, as the engine's
// callers do, with the reference following event by event.
func (o *queueOracle) run() {
	e := o.n.eng
	switch o.rng.Intn(3) {
	case 0:
		e.runUntil(e.now+int64(o.rng.Intn(30)), int64(1+o.rng.Intn(40)))
	case 1:
		e.runUntil(e.now+int64(o.rng.Intn(10)), 0)
	default:
		e.run(int64(1 + o.rng.Intn(60)))
	}
	o.check()
}

// TestEngineMatchesReferenceHeap drives the engine with seeded random
// deliveries (in order on their direction, behind their tail, in the past),
// callbacks that queue more work, deadline and event-count stops, and a
// checkpoint round trip mid-run, and requires it to run the events in
// exactly the order a container/heap of all of them pops, holding exactly
// the rest after every event.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		n := New(topo.BuildFabric(topo.FabricParams{}), Options{Seed: seed})
		if n.PendingEvents() != 0 {
			t.Fatal("a fresh network has events queued")
		}
		o := &queueOracle{t: t, rng: rand.New(rand.NewSource(seed)), n: n, seq: n.eng.seq, last: make([]int64, 2*len(n.sess))}
		n.OnEvent(o.pop)
		for round := range 120 {
			o.ops(5+o.rng.Intn(40), 0, true)
			o.run()
			if round == 60 {
				// Checkpoint mid-run: no callback may be queued, deliveries are.
				for o.callbacks > 0 {
					o.run()
				}
				o.ops(60, 0, false)
				st, err := n.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Queue) != len(o.ref) || !slices.IsSortedFunc(st.Queue, compareDeliveries) {
					t.Fatalf("exported %d deliveries (sorted: %v), reference queues %d",
						len(st.Queue), slices.IsSortedFunc(st.Queue, compareDeliveries), len(o.ref))
				}
				r, err := NewFromState(st, RestoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				r.OnEvent(o.pop)
				o.n, n = r, r
				o.loose = 0 // a restored queue arrives sorted: every delivery is chained
				for i := range o.ref {
					o.ref[i].loose = false
				}
				o.check()
			}
		}
		for len(o.ref) > 0 {
			o.run()
		}
		if o.popped < 3000 {
			t.Fatalf("seed %d ran only %d events", seed, o.popped)
		}
	}
}

// TestPendingEventsMatchesExport: mid-convergence most deliveries wait
// behind their direction's head, and PendingEvents still counts every one
// of them — as many as the checkpoint lists — before and after a restore.
func TestPendingEventsMatchesExport(t *testing.T) {
	n := midConvergence(t, 5)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.PendingEvents(); got != len(st.Queue) {
		t.Fatalf("PendingEvents = %d, export queues %d", got, len(st.Queue))
	}
	if len(n.eng.heap) >= len(st.Queue) {
		t.Fatalf("heap holds %d keys for %d deliveries: nothing is chained", len(n.eng.heap), len(st.Queue))
	}
	r, err := NewFromState(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PendingEvents(); got != len(st.Queue) {
		t.Fatalf("restored PendingEvents = %d, state queues %d", got, len(st.Queue))
	}
}

// TestRestoreQueueOrder: a restore sorts a queue that arrives out of
// order, so it runs and exports as the sorted one does, and refuses an
// epoch the engine cannot hold, as the decoder does.
func TestRestoreQueueOrder(t *testing.T) {
	n := midConvergence(t, 5)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	shuffled := *st
	shuffled.Queue = slices.Clone(st.Queue)
	slices.Reverse(shuffled.Queue)
	r, err := NewFromState(&shuffled, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Queue, st.Queue) {
		t.Fatal("a restore from the reversed queue exports a different queue")
	}
	if len(r.eng.heap) >= len(st.Queue) {
		t.Fatalf("restored heap holds %d keys for %d deliveries: nothing is chained", len(r.eng.heap), len(st.Queue))
	}

	bad := *st
	bad.Queue = slices.Clone(st.Queue)
	bad.Queue[0].Epoch = math.MaxInt32 + 1
	if _, err := NewFromState(&bad, RestoreOptions{}); err == nil {
		t.Error("a delivery epoch past int32 restored without error")
	}
	bad = *st
	bad.Sessions = slices.Clone(st.Sessions)
	bad.Sessions[0].Epoch = math.MinInt32 - 1
	if _, err := NewFromState(&bad, RestoreOptions{}); err == nil {
		t.Error("a session epoch past int32 restored without error")
	}
}

// parentEvent is the queue slot of the engine before deliveries were
// chained: a callback or a delivery, 136 bytes, in one slab that grew by
// doubling and copying.
type parentEvent struct {
	fn    func()
	sess  *session
	to    uint8
	epoch int
	u     bgp.Update
}

// TestSlabSegments: slots map contiguously onto segments of 16, 32, ...
// 1024 slots and then 1024 each, a segment never moves once allocated, and
// at every peak queue length up to 100k the segments allocate no more bytes
// than the doubling slab they replaced did.
func TestSlabSegments(t *testing.T) {
	prevSeg, prevOff := -1, -1
	for slot := int32(0); slot < 5000; slot++ {
		seg, off := locate(slot)
		switch {
		case off >= segLen(seg):
			t.Fatalf("slot %d at offset %d of segment %d, which holds %d", slot, off, seg, segLen(seg))
		case seg == prevSeg && off == prevOff+1:
		case seg == prevSeg+1 && off == 0 && (prevSeg < 0 || prevOff == segLen(prevSeg)-1):
		default:
			t.Fatalf("slot %d at (%d, %d) does not follow slot %d at (%d, %d)", slot, seg, off, slot-1, prevSeg, prevOff)
		}
		prevSeg, prevOff = seg, off
	}
	for _, b := range []struct {
		slot     int32
		seg, off int
	}{{0, 0, 0}, {15, 0, 15}, {16, 1, 0}, {1007, 5, 511}, {1008, 6, 0}, {2031, 6, 1023}, {2032, 7, 0}, {3056, 8, 0}} {
		if seg, off := locate(b.slot); seg != b.seg || off != b.off {
			t.Errorf("slot %d at (%d, %d), want (%d, %d)", b.slot, seg, off, b.seg, b.off)
		}
	}

	// The engine's slab: segments of the stated lengths, and a slot's
	// address survives the growth behind it.
	e := newEngine(1)
	first := e.slot(e.alloc())
	for range 4000 {
		e.alloc()
	}
	if e.slot(0) != first {
		t.Fatal("slot 0 moved while the slab grew")
	}
	for k, seg := range e.segs {
		if len(seg) != segLen(k) || cap(seg) != segLen(k) {
			t.Fatalf("segment %d holds %d (cap %d), want %d", k, len(seg), cap(seg), segLen(k))
		}
	}

	// Bytes per peak, against the parent's slab as append grew it.
	const peaks = 100_000
	size := int(unsafe.Sizeof(event{}))
	var parent []parentEvent
	parentBytes := 0
	segs, segBytes := 0, 0
	for p := 1; p <= peaks; p++ {
		if len(parent) == cap(parent) {
			parent = slices.Grow(parent, max(len(parent), 16))
			parentBytes += cap(parent) * int(unsafe.Sizeof(parentEvent{}))
		}
		parent = parent[:p]
		if seg, _ := locate(int32(p - 1)); seg == segs {
			segs++
			segBytes += segLen(seg) * size
		}
		if segBytes > parentBytes {
			t.Fatalf("peak %d: %d segments of %d-byte slots take %d bytes, the doubling slab took %d",
				p, segs, size, segBytes, parentBytes)
		}
	}
	t.Logf("at a %d-event peak: segments %d KB, doubling slab %d KB", peaks, segBytes>>10, parentBytes>>10)
}

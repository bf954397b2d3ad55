package fabric

import (
	"sync"
	"sync/atomic"

	"centralium/internal/bgp"
	"centralium/internal/telemetry"
)

// This file is the batch-parallel execution path of the engine (see
// DESIGN.md, "Batch-parallel engine"). The contract is strict: a parallel
// run must be byte-identical to a sequential run of the same seed — same
// event schedule, same telemetry stream, same FIB contents, same canonical
// logs. The mechanism:
//
//   - The engine collects a window of consecutive delivery events whose
//     timestamps span less than the lookahead (BaseLatency, the minimum
//     message delay). No event inside the window can schedule another event
//     inside it, and no control event (session churn, device power, chaos
//     fault firing) separates them, so their only ordering constraint is
//     per-device: two UPDATEs to the same speaker must apply in (time, seq)
//     order, while UPDATEs to different speakers commute.
//   - Phase 1 (parallel): deliveries are partitioned by target device and
//     fanned across workers. Each worker drives its speakers in event
//     order, handing back each event's outbox and buffered tap events.
//     Speakers are single-threaded state machines; device partitioning is
//     what makes driving them from workers safe.
//   - Phase 2 (merge, sequential): events are replayed in global (time,
//     seq) order — tap emission, jitter draws, chaos perturber calls, FIFO
//     bookkeeping, and scheduling of the resulting deliveries — so every
//     externally visible side effect happens in exactly the sequential
//     order, including RNG consumption.

// nodeTap is the per-node telemetry shim. Sequentially it forwards to the
// fleet tap; while a parallel worker owns the node it buffers, and the
// merge phase emits the buffer in event order.
type nodeTap struct {
	net       *Network
	buffering bool
	buf       []telemetry.Event
}

// Emit implements telemetry.Tap.
func (t *nodeTap) Emit(ev telemetry.Event) {
	if t.buffering {
		t.buf = append(t.buf, ev)
		return
	}
	t.net.tap.Emit(ev)
}

// take returns and clears the buffered events.
func (t *nodeTap) take() []telemetry.Event {
	out := t.buf
	t.buf = nil
	return out
}

// batchEvent is one delivery of a window plus the side effects its handling
// produced during the parallel phase, buffered so the merge phase can replay
// them in event order.
type batchEvent struct {
	at int64
	event
	out  []bgp.OutMsg
	taps []telemetry.Event
}

// execBatch runs one causally independent window of delivery events:
// parallel per-device handling, then a sequential merge in (time, seq)
// order. Called by the engine with len(keys) > 1.
func (n *Network) execBatch(keys []qkey) {
	// Copy the events out of the slab: the merge phase schedules deliveries,
	// which may move it.
	batch := make([]batchEvent, len(keys))
	for i, k := range keys {
		batch[i] = batchEvent{at: k.at, event: n.eng.slab[k.slot]}
	}

	// Partition by target device, preserving per-device event order.
	groups := make(map[*Node][]*batchEvent, len(batch))
	var order []*Node
	for i := range batch {
		be := &batch[i]
		key := be.sess.ends[be.to]
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], be)
	}

	if len(order) == 1 {
		// One device: no parallelism to extract; step sequentially.
		for i := range batch {
			n.eng.now = batch[i].at
			n.deliver(&batch[i].event)
		}
		return
	}

	buffer := n.tap != nil
	if buffer {
		for _, node := range order {
			node.tap.buffering = true
		}
	}

	// Phase 1: fan per-device groups across workers. Work-stealing over the
	// group list; assignment order does not affect results because every
	// side effect is buffered per event and merged in phase 2.
	workers := n.eng.workers
	if workers > len(order) {
		workers = len(order)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(order)) {
					return
				}
				handleGroup(order[i], groups[order[i]])
			}
		}()
	}
	wg.Wait()

	// Phase 2: merge in global event order.
	for i := range batch {
		be := &batch[i]
		n.eng.now = be.at
		for _, te := range be.taps {
			n.tap.Emit(te)
		}
		if len(be.out) > 0 {
			n.routeMsgs(be.sess.endID(be.to), be.out)
		}
	}

	if buffer {
		for _, node := range order {
			node.tap.buffering = false
		}
	}
}

// handleGroup applies one device's deliveries in event order, capturing
// each event's side effects (outbox, tap emissions) for the merge phase.
// The pre-checks read session/device state that cannot change inside a
// delivery-only window, so evaluating them here matches sequential timing.
func handleGroup(node *Node, evs []*batchEvent) {
	for _, be := range evs {
		if !node.up || !be.sess.up || be.sess.epoch != be.epoch {
			continue // device down, or session went down (or bounced) in flight
		}
		node.vnow = be.at
		node.Speaker.HandleUpdate(be.sess.id, be.u)
		be.out = node.Speaker.TakeOutbox()
		be.taps = node.tap.take()
	}
}

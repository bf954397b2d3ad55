package server

// The /v1/events stream: a fan-out broadcaster fed by telemetry taps
// attached to request forks. Subscribers get buffered channels; a slow
// subscriber loses events (counted, never blocks the serving path) —
// the stream is observability, not state, so dropping is the correct
// backpressure.

import (
	"sync"
	"sync/atomic"

	"centralium/internal/guard"
	"centralium/internal/telemetry"
)

// StreamEvent is one /v1/events item: a telemetry event plus the request
// context that produced it, or — for guarded executions — a guard
// state-machine transition.
type StreamEvent struct {
	// Source labels the producing request, e.g. "whatif fig10/42" or
	// "execute fig10/42".
	Source string          `json:"source"`
	Event  telemetry.Event `json:"event"`
	// Guard, when set, marks this item as a guard transition (running,
	// retrying, rolled-back, quarantined, completed, aborted, paused)
	// from a POST /v1/execute campaign; Event is zero for these.
	Guard *guard.Transition `json:"guard,omitempty"`
}

type broadcaster struct {
	mu   sync.Mutex
	subs map[int]chan StreamEvent
	// listening mirrors len(subs), written under mu, so publish can return
	// without the lock when nobody listens — the common case for what-if
	// forks, which tap every telemetry event.
	listening atomic.Int64
	next      int
	closed    bool
	buffer    int
	dropped   int64
	sent      int64
}

func newBroadcaster(buffer int) *broadcaster {
	return &broadcaster{subs: make(map[int]chan StreamEvent), buffer: buffer}
}

// subscribe registers a new subscriber. The channel closes when the
// broadcaster shuts down (server drain).
func (b *broadcaster) subscribe() (int, <-chan StreamEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.next
	b.next++
	ch := make(chan StreamEvent, b.buffer)
	if b.closed {
		close(ch)
		return id, ch
	}
	b.subs[id] = ch
	b.listening.Store(int64(len(b.subs)))
	return id, ch
}

func (b *broadcaster) unsubscribe(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ch, ok := b.subs[id]; ok {
		delete(b.subs, id)
		b.listening.Store(int64(len(b.subs)))
		close(ch)
	}
}

// publish fans the event out without ever blocking: a full subscriber
// buffer drops the event for that subscriber only.
func (b *broadcaster) publish(ev StreamEvent) {
	if b.listening.Load() == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
			b.sent++
		default:
			b.dropped++
		}
	}
}

// close shuts the stream down; every subscriber channel closes.
func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, ch := range b.subs {
		delete(b.subs, id)
		close(ch)
	}
	b.listening.Store(0)
}

// tap adapts the broadcaster to a telemetry.Tap for one request fork.
// Fork emulation is single-threaded, but several forks publish
// concurrently — publish is the serialization point.
func (b *broadcaster) tap(source string) telemetry.Tap {
	return telemetry.TapFunc(func(ev telemetry.Event) {
		b.publish(StreamEvent{Source: source, Event: ev})
	})
}

func (b *broadcaster) stats() (subscribers int, sent, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs), b.sent, b.dropped
}

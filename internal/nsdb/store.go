package nsdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"centralium/internal/metrics"
)

// View distinguishes the two contrasting network views every Centralium
// service maintains (Section 5.1).
type View int

// The two views.
const (
	// Intended captures what applications want network state to be.
	Intended View = iota
	// Current captures the actual network state (ground truth).
	Current
)

// String returns "intended" or "current".
func (v View) String() string {
	if v == Intended {
		return "intended"
	}
	return "current"
}

// Event is one published change, delivered to matching subscribers.
type Event struct {
	View  View
	Path  string
	Value any // nil for deletions
	// Deleted marks a removal.
	Deleted bool
}

// subscription is one registered watcher.
type subscription struct {
	id      int
	view    View
	pattern string
	ch      chan Event
}

// Store holds one replica's state: the intended and current trees plus
// subscriber fan-out. All methods are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	views   [2]tree
	subs    map[int]*subscription
	nextSub int

	writes int64

	// meter, when set, accounts write-path busy time to this replica task
	// (the Figure 11 CPU metric).
	meter *metrics.TaskMeter
}

// SetMeter attaches a task meter; write operations credit busy time to it.
func (s *Store) SetMeter(m *metrics.TaskMeter) {
	s.mu.Lock()
	s.meter = m
	s.mu.Unlock()
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{subs: make(map[int]*subscription)}
}

// Set writes a value and publishes the change to matching subscribers.
func (s *Store) Set(v View, path string, value any) {
	start := time.Now()
	s.mu.Lock()
	s.views[v].set(path, value)
	s.writes++
	writes := s.writes
	subs := s.matchingSubs(v, path)
	meter := s.meter
	s.mu.Unlock()
	if meter != nil {
		meter.AddBusy(time.Since(start))
		// Re-measuring the full state footprint on every write would
		// dominate the cost being measured; sample it periodically.
		if writes%64 == 1 {
			meter.SetHeapBytes(s.SizeBytes())
		}
	}
	ev := Event{View: v, Path: canonical(path), Value: value}
	for _, sub := range subs {
		select {
		case sub.ch <- ev:
		default: // slow subscriber: drop rather than block the store
		}
	}
}

// Get reads a value.
func (s *Store) Get(v View, path string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views[v].get(path)
}

// Delete removes a value and publishes a deletion event if one existed.
func (s *Store) Delete(v View, path string) {
	s.mu.Lock()
	had := s.views[v].del(path)
	var subs []*subscription
	if had {
		s.writes++
		subs = s.matchingSubs(v, path)
	}
	s.mu.Unlock()
	if !had {
		return
	}
	ev := Event{View: v, Path: canonical(path), Deleted: true}
	for _, sub := range subs {
		select {
		case sub.ch <- ev:
		default:
		}
	}
}

// GetMatch returns path->value for all entries matching the wildcard
// pattern ("*" one segment, trailing "**" any depth).
func (s *Store) GetMatch(v View, pattern string) map[string]any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views[v].match(pattern)
}

// Keys returns the sorted matching paths.
func (s *Store) Keys(v View, pattern string) []string {
	m := s.GetMatch(v, pattern)
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subscribe registers a watcher for changes under the pattern in the view.
// The returned cancel function must be called to release the subscription.
// Slow subscribers lose events rather than block writers (the paper's
// eventual-consistency posture: reconciliation loops re-read state anyway).
func (s *Store) Subscribe(v View, pattern string, buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	sub := &subscription{id: id, view: v, pattern: pattern, ch: make(chan Event, buffer)}
	s.subs[id] = sub
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(sub.ch)
		}
		s.mu.Unlock()
	}
	return sub.ch, cancel
}

func (s *Store) matchingSubs(v View, path string) []*subscription {
	var out []*subscription
	for _, sub := range s.subs {
		if sub.view == v && matchPath(sub.pattern, path) {
			out = append(out, sub)
		}
	}
	return out
}

func canonical(path string) string {
	segs := splitPath(path)
	out := "/"
	for i, s := range segs {
		if i > 0 {
			out += "/"
		}
		out += s
	}
	return out
}

// OutOfSync compares the intended and current views under a pattern and
// returns the paths whose values differ (by JSON equality) or exist in only
// one view — the straggler-detection primitive behind the consistency
// guarantee of Section 5.1.
func (s *Store) OutOfSync(pattern string) []string {
	intended := s.GetMatch(Intended, pattern)
	current := s.GetMatch(Current, pattern)
	seen := make(map[string]bool)
	var out []string
	for path, iv := range intended {
		seen[path] = true
		cv, ok := current[path]
		if !ok || !Equal(iv, cv) {
			out = append(out, path)
		}
	}
	for path := range current {
		if !seen[path] {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// Equal is the store's notion of in sync, JSON equality, for callers that
// compare values outside OutOfSync.
func Equal(a, b any) bool {
	da, errA := json.Marshal(a)
	db, errB := json.Marshal(b)
	if errA != nil || errB != nil {
		return false
	}
	return string(da) == string(db)
}

// SizeBytes approximates the store's state footprint (both views, JSON
// encoded) — the memory figure sampled for Figure 11(b).
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for v := range s.views {
		for _, val := range s.views[v].match("/**") {
			if data, err := json.Marshal(val); err == nil {
				total += int64(len(data))
			}
		}
	}
	return total
}

// Writes returns the cumulative write count.
func (s *Store) Writes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writes
}

// Snapshot copies every entry of both views (used for replica catch-up).
func (s *Store) Snapshot() map[View]map[string]any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[View]map[string]any, 2)
	for _, v := range []View{Intended, Current} {
		out[v] = s.views[v].match("/**")
	}
	return out
}

// LoadSnapshot replaces the store's contents with the snapshot.
func (s *Store) LoadSnapshot(snap map[View]map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views[Intended] = tree{}
	s.views[Current] = tree{}
	for v, entries := range snap {
		for path, val := range entries {
			s.views[v].set(path, val)
		}
	}
}

// DevicePath builds the conventional path for a device's subtree, e.g.
// DevicePath("ssw.pl0.0", "rpa") -> "/devices/ssw.pl0.0/rpa".
func DevicePath(device string, parts ...string) string {
	p := "/devices/" + device
	for _, part := range parts {
		p += "/" + part
	}
	return p
}

// ErrNoLeader is returned by cluster reads when every replica is down.
var ErrNoLeader = fmt.Errorf("nsdb: no live replica")

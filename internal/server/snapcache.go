package server

// The warm snapshot cache: converged scenario bases keyed by their
// canonical state fingerprint, with a (scenario, seed) index on top and
// a singleflight latch so one cold miss builds a base exactly once no
// matter how many requests arrive for it together. Cached entries are
// immutable — the snapshot concurrency contract (internal/snapshot) is
// what lets every request fork its own network from a shared entry.

import (
	"fmt"
	"sync"

	"centralium/internal/fabric"
	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
)

// cacheEntry is one warm base: the captured snapshot, its identity, the
// scenario's planning parameters with its intent's compiled programs, and the
// guarded campaign it starts. Everything here is read-only after build: every
// request on the base forks the one snapshot, and every what-if, search and
// campaign deploys the one set of programs for its intent
// (qualify.Spec.Compiled, planner.Params.Compiled, guard.Campaign.Compiled),
// so a warm request compiles nothing.
type cacheEntry struct {
	Fingerprint string
	Snap        *snapshot.Snapshot
	// Params carries Params.Intent compiled once, in Params.Compiled.
	Params planner.Params
	// campaign is what every /v1/execute on the base starts from: the
	// scenario's canonical intent (guard.CanonicalIntent), compiled once.
	campaign    guard.Campaign
	scenarioKey string
}

// fork materializes a private network from the entry — the per-request
// isolation step. The snapshot and its frozen topology are shared; the
// restore copies what a network edits in place (drain and link state live in
// its speakers and sessions).
func (e *cacheEntry) fork() (*fabric.Network, error) {
	return e.Snap.Restore()
}

// loadCall is the singleflight latch for one in-progress base build.
type loadCall struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// snapCache is the LRU of warm bases.
type snapCache struct {
	mu sync.Mutex
	// entries by state fingerprint, least recently used first; byScenario
	// indexes "scenario|seed" → fingerprint.
	entries    *recency[*cacheEntry]
	byScenario map[string]string
	loading    map[string]*loadCall

	hits, misses, evictions int64
}

func newSnapCache(max int) *snapCache {
	return &snapCache{
		entries:    newRecency[*cacheEntry](max, nil),
		byScenario: make(map[string]string),
		loading:    make(map[string]*loadCall),
	}
}

// get returns the warm base for (scenario, seed), building it on a cold
// miss. Concurrent misses for the same key share one build.
func (c *snapCache) get(scenario string, seed int64) (*cacheEntry, error) {
	key := fmt.Sprintf("%s|%d", scenario, seed)
	c.mu.Lock()
	if fp, ok := c.byScenario[key]; ok {
		if e, ok := c.entries.touch(fp); ok {
			c.hits++
			c.mu.Unlock()
			return e, nil
		}
	}
	if call, ok := c.loading[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.entry, call.err
	}
	call := &loadCall{done: make(chan struct{})}
	c.loading[key] = call
	c.misses++
	c.mu.Unlock()

	call.entry, call.err = buildEntry(scenario, seed, key)

	c.mu.Lock()
	delete(c.loading, key)
	if call.err == nil {
		c.insert(call.entry)
	}
	c.mu.Unlock()
	close(call.done)
	return call.entry, call.err
}

// insert adds a built entry and evicts past capacity. Caller holds mu.
func (c *snapCache) insert(e *cacheEntry) {
	c.byScenario[e.scenarioKey] = e.Fingerprint
	if _, ok := c.entries.touch(e.Fingerprint); ok {
		return // two scenario keys can reach one state; keep the existing entry
	}
	for _, v := range c.entries.put(e.Fingerprint, e) {
		delete(c.byScenario, v.scenarioKey)
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *snapCache) stats() (hits, misses, evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.entries.len()
}

// buildEntry runs the scenario setup, captures the entry's identity and
// compiles the intent once for every request on the base, and its canonical
// form for every campaign (only the configs whose version tag it rewrote
// compile again). A config that does not compile does not fail the build: it
// is left out of the programs, so what deploys it compiles it again and fails
// as without the entry — a what-if's rollout pre-flight reports a rollout
// violation, a search or campaign fails to start with the compile error.
func buildEntry(scenario string, seed int64, key string) (*cacheEntry, error) {
	snap, params, err := planner.ScenarioSetup(scenario, seed)
	if err != nil {
		return nil, err
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("fingerprint %s: %w", key, err)
	}
	params.Compiled, _ = params.Intent.Compile(nil)
	c := guard.FromParams(params)
	c.Intent = guard.CanonicalIntent(c.Intent)
	c.Compiled, _ = c.Intent.Compile(params.Compiled)
	return &cacheEntry{Fingerprint: fp, Snap: snap, Params: params, campaign: c, scenarioKey: key}, nil
}

// respMemo is the (fingerprint, request) → response-bytes memo, first in
// first out. Memoization is transparent by construction: a stored body is
// the byte-identical output of the deterministic computation it skips.
type respMemo struct {
	mu     sync.Mutex
	bodies *recency[[]byte]
	hits   int64
	misses int64
}

func newRespMemo(max int) *respMemo {
	return &respMemo{bodies: newRecency[[]byte](max, nil)}
}

func (m *respMemo) get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	body, ok := m.bodies.get(key)
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return body, ok
}

// put stores a body unless an identical computation already memoized it.
func (m *respMemo) put(key string, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.bodies.get(key); !ok {
		m.bodies.put(key, body)
	}
}

func (m *respMemo) stats() (hits, misses int64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.bodies.len()
}

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

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
)

// cacheEntry is one warm base: the captured snapshot, its identity, the
// scenario's planning parameters and its intent's compiled programs.
// Everything here is read-only after build: every request on the base forks
// the one snapshot, and every what-if deploys the one set of programs
// (qualify.Spec.Compiled), so a warm what-if compiles nothing.
type cacheEntry struct {
	Fingerprint string
	Snap        *snapshot.Snapshot
	Params      planner.Params
	// programs is Params.Intent compiled once, by device (see buildEntry).
	programs    map[topo.DeviceID]*core.Program
	scenarioKey string
}

// fork materializes a private network from the entry — the per-request
// isolation step. The snapshot is shared; the restore clones its topology
// (networks mutate drain/cost state on theirs).
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
// compiles the intent once for every what-if on the base. A config that does
// not compile does not fail the build: it is left out of the programs, and
// each what-if's rollout pre-flight reports it as a rollout violation.
func buildEntry(scenario string, seed int64, key string) (*cacheEntry, error) {
	snap, params, err := planner.ScenarioSetup(scenario, seed)
	if err != nil {
		return nil, err
	}
	fp, err := snap.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("fingerprint %s: %w", key, err)
	}
	programs, _ := params.Intent.Compile() // the rollout reports what failed
	return &cacheEntry{Fingerprint: fp, Snap: snap, Params: params, programs: programs, scenarioKey: key}, nil
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

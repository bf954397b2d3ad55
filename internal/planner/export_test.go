package planner

import (
	"maps"
	"runtime"
	"testing"
)

// atWidth runs the rest of the test with GOMAXPROCS, and so the search's
// evaluation pool, at n.
func atWidth(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// memObjects is an in-memory ObjectStore that counts its Puts.
type memObjects struct {
	objs map[string][]byte
	puts int
}

func newMemObjects() *memObjects { return &memObjects{objs: make(map[string][]byte)} }

func (m *memObjects) Put(key string, data []byte) error {
	m.puts++
	if _, ok := m.objs[key]; !ok {
		m.objs[key] = data
	}
	return nil
}

func (m *memObjects) Get(key string) ([]byte, bool, error) {
	data, ok := m.objs[key]
	return data, ok, nil
}

// clone returns a store holding the same objects.
func (m *memObjects) clone() *memObjects { return &memObjects{objs: maps.Clone(m.objs)} }

package server

import (
	"fmt"
	"testing"
)

// TestRecency pins the one recency structure: put appends a new key and
// replaces a present one in place, touch moves a key to the newest end, and
// a new key past the bound evicts the oldest keys that are not pinned.
func TestRecency(t *testing.T) {
	r := newRecency(3, func(v int) bool { return v >= 10 })
	order := func() string {
		var pairs []string
		keys, vals := r.list()
		for i, k := range keys {
			pairs = append(pairs, fmt.Sprintf("%s=%d", k, vals[i]))
		}
		return fmt.Sprint(pairs)
	}
	for i, k := range []string{"a", "b", "c"} {
		if evicted := r.put(k, i); evicted != nil {
			t.Fatalf("put %s under the bound evicted %v", k, evicted)
		}
	}
	r.put("b", 10)
	if _, ok := r.touch("a"); !ok {
		t.Error("touch missed a present key")
	}
	if got, want := order(), "[b=10 c=2 a=0]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if evicted := r.put("d", 3); fmt.Sprint(evicted) != "[2]" {
		t.Errorf("put past the bound evicted %v, want [2] (b pinned)", evicted)
	}
	if got, want := order(), "[b=10 a=0 d=3]"; got != want || r.len() != 3 {
		t.Errorf("after eviction: %s (len %d), want %s", got, r.len(), want)
	}
	if v, ok := r.get("c"); ok {
		t.Errorf("evicted key still present (%d)", v)
	}
}

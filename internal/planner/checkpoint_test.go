package planner

// The checkpoint container: each distinct state once, bytes that are a
// pure function of the search state, and a reader that answers any input
// with an error or a search, never a panic.

import (
	"bytes"
	"testing"
)

// steppedSearch returns a fig10 search advanced the given number of levels.
func steppedSearch(t testing.TB, levels int) *Search {
	t.Helper()
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Beam = 2
	p.RandomCands = -1
	s, err := NewSearch(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < levels; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func mustCheckpoint(t testing.TB, s *Search) []byte {
	t.Helper()
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointHoldsEachStateOnce: a beam node is a memo child and memo
// entries share children, so a checkpoint names far more states than it
// has distinct ones; the container carries the distinct ones only.
func TestCheckpointHoldsEachStateOnce(t *testing.T) {
	s := steppedSearch(t, 3)
	data := mustCheckpoint(t, s)
	cp, states, err := readContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	refs := 1 + len(cp.Beam)
	for _, mc := range cp.Memo {
		if mc.Child != noState {
			refs++
		}
	}
	if refs <= len(states) {
		t.Fatalf("%d references to %d states: the search shares nothing and the test proves nothing", refs, len(states))
	}
	seen := make(map[string]int)
	sum := 0
	for i, st := range states {
		if j, dup := seen[string(st)]; dup {
			t.Errorf("state table entries %d and %d are equal", j, i)
		}
		seen[string(st)] = i
		sum += len(st)
	}
	manifest, err := encodeContainer(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256 // the table's length prefixes
	if len(data) > len(manifest)+sum+slack {
		t.Errorf("container is %d bytes for a %d-byte manifest and %d bytes of distinct states", len(data), len(manifest), sum)
	}
}

// TestCheckpointIsPureFunctionOfState: the search resumed at any level
// emits, at every later level, the checkpoint the uninterrupted search
// emits there — byte for byte, so WAL contents do not depend on pacing.
func TestCheckpointIsPureFunctionOfState(t *testing.T) {
	ref := steppedSearch(t, 0)
	want := [][]byte{mustCheckpoint(t, ref)}
	for !ref.done {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		want = append(want, mustCheckpoint(t, ref))
	}
	if len(want) < 3 {
		t.Fatalf("search too shallow to interrupt (%d levels)", len(want)-1)
	}
	for from := range want {
		s, err := ResumeSearch(want[from])
		if err != nil {
			t.Fatalf("resume at level %d: %v", from, err)
		}
		for level := from; ; level++ {
			if got := mustCheckpoint(t, s); !bytes.Equal(got, want[level]) {
				t.Fatalf("resumed at level %d: checkpoint at level %d differs from the uninterrupted search's", from, level)
			}
			if s.done {
				break
			}
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestResumeRejectsDamagedContainer: each structural fault is an error
// that names it.
func TestResumeRejectsDamagedContainer(t *testing.T) {
	data := mustCheckpoint(t, steppedSearch(t, 1))
	cp, states, err := readContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(mutate func(*Checkpoint)) []byte {
		c := cp
		c.Beam = append([]nodeCheckpoint(nil), cp.Beam...)
		c.Memo = append([]memoCheckpoint(nil), cp.Memo...)
		mutate(&c)
		out, err := encodeContainer(c, states)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string][]byte{
		"bad magic":         append([]byte("CPLX"), data[4:]...),
		"manifest cut":      data[:40],
		"state table cut":   data[:len(data)-1],
		"trailing bytes":    append(bytes.Clone(data), 0),
		"unknown version":   reencode(func(c *Checkpoint) { c.Version = 3 }),
		"base out of range": reencode(func(c *Checkpoint) { c.Base = len(states) }),
		"beam out of range": reencode(func(c *Checkpoint) { c.Beam[0].State = -1 }),
		"memo out of range": reencode(func(c *Checkpoint) { c.Memo[0].Child = len(states) + 7 }),
	}
	for name, damaged := range cases {
		if s, err := ResumeSearch(damaged); err == nil {
			t.Errorf("%s: resumed to level %d without an error", name, s.Level())
		}
	}
}

// FuzzCheckpointContainer: any input is an error or a search, and a search
// that came out of ResumeSearch checkpoints to bytes that resume to the
// same checkpoint again.
func FuzzCheckpointContainer(f *testing.F) {
	data := mustCheckpoint(f, steppedSearch(f, 1))
	cp, states, err := readContainer(data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, cut := range []int{0, 3, 4, 5, 64, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	swapped := cp
	swapped.Beam = append([]nodeCheckpoint(nil), cp.Beam...)
	swapped.Beam[0].State, swapped.Base = swapped.Base, swapped.Beam[0].State
	if enc, err := encodeContainer(swapped, states); err == nil {
		f.Add(enc)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-len(states[len(states)-1])/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ResumeSearch(in)
		if err != nil {
			return
		}
		first, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint of a resumed search: %v", err)
		}
		if bytes.Equal(in, data) && !bytes.Equal(first, data) {
			t.Fatal("a checkpoint resumed and taken again changed")
		}
		again, err := ResumeSearch(first)
		if err != nil {
			t.Fatalf("a resumed search wrote a checkpoint that does not resume: %v", err)
		}
		if second := mustCheckpoint(t, again); !bytes.Equal(first, second) {
			t.Fatalf("checkpoint of a resumed search is not a fixed point (%d vs %d bytes)", len(first), len(second))
		}
	})
}

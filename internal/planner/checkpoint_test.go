package planner

// The checkpoint container: each distinct state once, bytes that are a
// pure function of the search state in either framing, and a reader that
// answers any input with an error or a search, never a panic, and never
// trusts a fingerprint.

import (
	"bytes"
	"strings"
	"testing"
)

// steppedSearch returns a fig10 search advanced the given number of levels,
// its states kept in objs when set.
func steppedSearch(t testing.TB, levels int, objs ObjectStore) *Search {
	t.Helper()
	snap, p, err := ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Beam = 2
	p.RandomCands = -1
	s, err := NewSearchWith(snap, p, objs)
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

// mustRead splits a container, failing the test on damage.
func mustRead(t testing.TB, data []byte) (Checkpoint, map[string][]byte) {
	t.Helper()
	cp, table, err := readContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	return cp, table
}

// named lists the fingerprints a manifest names, in reference order with
// repeats.
func named(cp Checkpoint) []string {
	fps := []string{cp.Base}
	for _, nc := range cp.Beam {
		fps = append(fps, nc.State)
	}
	for _, mc := range cp.Memo {
		if mc.Child != "" {
			fps = append(fps, mc.Child)
		}
	}
	return fps
}

// tableStates lists a table's states.
func tableStates(table map[string][]byte) [][]byte {
	var out [][]byte
	for _, st := range table {
		out = append(out, st)
	}
	return out
}

// TestCheckpointHoldsEachStateOnce: a beam node is a memo child and memo
// entries share children, so a checkpoint names far more states than it
// has distinct ones; the inline container carries the distinct ones only,
// and every one it names.
func TestCheckpointHoldsEachStateOnce(t *testing.T) {
	data := mustCheckpoint(t, steppedSearch(t, 3, nil))
	cp, table := mustRead(t, data)
	refs := named(cp)
	if len(refs) <= len(table) {
		t.Fatalf("%d references to %d states: the search shares nothing and the test proves nothing", len(refs), len(table))
	}
	for _, fp := range refs {
		if table[fp] == nil {
			t.Errorf("the manifest names state %s, which the inline table lacks", short(fp))
		}
	}
	sum := 0
	for _, st := range table {
		sum += len(st)
	}
	manifest, err := encodeContainer(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256 // the table's length prefixes
	if len(data) > len(manifest)+sum+slack {
		t.Errorf("container is %d bytes for a %d-byte manifest and %d bytes of distinct states: a state repeats", len(data), len(manifest), sum)
	}
}

// TestCheckpointIsPureFunctionOfState: the search resumed at any level
// emits, at every later level, the checkpoint the uninterrupted search
// emits there — byte for byte, in either framing, so WAL contents do not
// depend on pacing.
func TestCheckpointIsPureFunctionOfState(t *testing.T) {
	for _, framing := range []struct {
		name string
		objs ObjectStore
	}{{"inline", nil}, {"bare", newMemObjects()}} {
		t.Run(framing.name, func(t *testing.T) {
			ref := steppedSearch(t, 0, framing.objs)
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
				s, err := ResumeSearchWith(want[from], framing.objs)
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
		})
	}
}

// TestCheckpointFramingsAgree: a search resumed from a bare checkpoint and
// its store and one resumed from the inline checkpoint of the same state
// checkpoint identically ever after — the same manifest, the bare one's
// store holding every state the inline one carries — and the bare framing
// is the manifest alone.
func TestCheckpointFramingsAgree(t *testing.T) {
	objs := newMemObjects()
	bare := mustCheckpoint(t, steppedSearch(t, 1, objs))
	inline := mustCheckpoint(t, steppedSearch(t, 1, nil))
	cp, table := mustRead(t, bare)
	if len(table) != 0 {
		t.Fatalf("a bare checkpoint carries %d states", len(table))
	}
	fromInline, inlineTable := mustRead(t, inline)
	if !sameManifest(t, cp, fromInline) {
		t.Fatal("the two framings of one state carry different manifests")
	}
	if len(objs.objs) != len(inlineTable) {
		t.Fatalf("the store holds %d states, the inline table %d", len(objs.objs), len(inlineTable))
	}

	a, err := ResumeSearchWith(bare, objs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResumeSearch(inline)
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; ; level++ {
		gotBare, gotInline := mustCheckpoint(t, a), mustCheckpoint(t, b)
		manifest, table := mustRead(t, gotInline)
		stripped, err := encodeContainer(manifest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBare, stripped) {
			t.Fatalf("level %d: the bare checkpoint is not the inline one's manifest", level)
		}
		for fp, st := range table {
			if got, ok := objs.objs[fp]; !ok || !bytes.Equal(got, st) {
				t.Fatalf("level %d: the inline table carries state %s, the store does not", level, short(fp))
			}
		}
		if a.done != b.done {
			t.Fatalf("level %d: one framing finished, the other did not", level)
		}
		if a.done {
			return
		}
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func sameManifest(t *testing.T, a, b Checkpoint) bool {
	t.Helper()
	x, err := encodeContainer(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, err := encodeContainer(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(x, y)
}

// TestResumeRejectsMissingState: a bare manifest resumes only when every
// fingerprint it names is in the store under the bytes that hash to it —
// an absent state, one filed under another state's bytes, or no store at
// all is an error that says so.
func TestResumeRejectsMissingState(t *testing.T) {
	objs := newMemObjects()
	s := steppedSearch(t, 2, objs)
	bare := mustCheckpoint(t, s)
	cp, _ := mustRead(t, bare)
	if len(cp.Beam) < 2 {
		t.Fatalf("beam of %d: nothing to swap", len(cp.Beam))
	}
	if _, err := ResumeSearchWith(bare, objs); err != nil {
		t.Fatalf("the intact store does not resume: %v", err)
	}
	victim, other := cp.Beam[0].State, cp.Beam[1].State
	missing := objs.clone()
	delete(missing.objs, victim)
	misfiled := objs.clone()
	misfiled.objs[victim] = objs.objs[other]
	for name, tc := range map[string]struct {
		objs ObjectStore
		want string
	}{
		"absent":   {missing, "missing from the object store"},
		"misfiled": {misfiled, "holds state " + short(other)},
		"no store": {nil, "no object store"},
	} {
		_, err := ResumeSearchWith(bare, tc.objs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume error %v, want one that says %q", name, err, tc.want)
		}
	}
}

// TestResumeRejectsDamagedContainer: each structural fault is an error
// that names it.
func TestResumeRejectsDamagedContainer(t *testing.T) {
	data := mustCheckpoint(t, steppedSearch(t, 1, nil))
	cp, table := mustRead(t, data)
	states := tableStates(table)
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
	absent := strings.Repeat("0", 64)
	cases := map[string][]byte{
		"bad magic":          append([]byte("CPLX"), data[4:]...),
		"manifest cut":       data[:40],
		"state table cut":    data[:len(data)-1],
		"trailing bytes":     append(bytes.Clone(data), 0),
		"unknown version":    reencode(func(c *Checkpoint) { c.Version = 4 }),
		"base absent":        reencode(func(c *Checkpoint) { c.Base = absent }),
		"beam state absent":  reencode(func(c *Checkpoint) { c.Beam[0].State = absent }),
		"memo child absent":  reencode(func(c *Checkpoint) { c.Memo[0].Child = absent }),
		"base names nothing": reencode(func(c *Checkpoint) { c.Base = "" }),
	}
	for name, damaged := range cases {
		if s, err := ResumeSearch(damaged); err == nil {
			t.Errorf("%s: resumed to level %d without an error", name, s.Level())
		}
	}
}

// FuzzCheckpointContainer: any input is an error or a search, with or
// without an object store, and a search that came out of a resume
// checkpoints to bytes that resume to the same checkpoint again. The seeds
// are an inline checkpoint and a bare one, backed by an in-memory store
// local to the fuzz test.
func FuzzCheckpointContainer(f *testing.F) {
	stored := newMemObjects()
	bare := mustCheckpoint(f, steppedSearch(f, 1, stored))
	inline := mustCheckpoint(f, steppedSearch(f, 1, nil))
	cp, table := mustRead(f, inline)
	for _, data := range [][]byte{inline, bare} {
		f.Add(data)
		for _, cut := range []int{0, 3, 4, 5, 64, len(data) / 2, len(data) - 1} {
			f.Add(data[:cut])
		}
	}
	swapped := cp
	swapped.Beam = append([]nodeCheckpoint(nil), cp.Beam...)
	swapped.Beam[0].State, swapped.Base = swapped.Base, swapped.Beam[0].State
	for _, states := range [][][]byte{tableStates(table), nil} {
		if enc, err := encodeContainer(swapped, states); err == nil {
			f.Add(enc)
		}
	}
	flipped := bytes.Clone(inline)
	flipped[len(flipped)-100] ^= 0x40 // inside the last state
	f.Add(flipped)
	flipped = bytes.Clone(bare)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, in []byte) {
		for _, objs := range []*memObjects{nil, stored.clone()} {
			var store ObjectStore
			if objs != nil {
				store = objs
			}
			s, err := ResumeSearchWith(in, store)
			if err != nil {
				continue
			}
			first, err := s.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint of a resumed search: %v", err)
			}
			if store != nil && (bytes.Equal(in, inline) || bytes.Equal(in, bare)) && !bytes.Equal(first, bare) {
				t.Fatal("a checkpoint resumed and taken again by reference changed")
			}
			if store == nil && bytes.Equal(in, inline) && !bytes.Equal(first, inline) {
				t.Fatal("a checkpoint resumed and taken again inline changed")
			}
			again, err := ResumeSearchWith(first, store)
			if err != nil {
				t.Fatalf("a resumed search wrote a checkpoint that does not resume: %v", err)
			}
			if second := mustCheckpoint(t, again); !bytes.Equal(first, second) {
				t.Fatalf("checkpoint of a resumed search is not a fixed point (%d vs %d bytes)", len(first), len(second))
			}
		}
	})
}

package planner

import (
	"strings"
	"testing"
)

// benchSetup is the small fig10 planning problem both benchmarks share:
// the SSW+FA column (4 devices), so the exhaustive sweep stays at 24
// permutations and the two numbers are directly comparable.
func benchSetup(b *testing.B) (snapEnc []byte, p Params) {
	b.Helper()
	snap, params, err := ScenarioSetup("fig10", 42)
	if err != nil {
		b.Fatal(err)
	}
	for d := range params.Intent {
		if !strings.HasPrefix(string(d), "ssw.") && !strings.HasPrefix(string(d), "fa.") {
			delete(params.Intent, d)
		}
	}
	enc, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return enc, params
}

// BenchmarkPlanner measures one full beam search (fork, execute,
// score, memoize) on the small fig10 problem.
func BenchmarkPlanner(b *testing.B) {
	enc, p := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := newSearchFromState(enc, fingerprint(enc), p, nil)
		if err != nil {
			b.Fatal(err)
		}
		for {
			done, err := s.Step()
			if err != nil {
				b.Fatal(err)
			}
			if done {
				break
			}
		}
		if _, err := s.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustive measures the brute-force reference on the same
// problem: every batch-1 permutation scored through the shared memo.
func BenchmarkExhaustive(b *testing.B) {
	enc, p := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := newSearchFromState(enc, fingerprint(enc), p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := exhaustiveOn(s); err != nil {
			b.Fatal(err)
		}
	}
}

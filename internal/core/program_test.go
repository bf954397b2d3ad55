package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestCompileMatchesValidate holds Compile to the error strings Validate had
// when it was a walker of its own: Validate, Compile and NewEvaluator refuse
// every invalid config with the same, pinned text.
func TestCompileMatchesValidate(t *testing.T) {
	for i, tc := range invalidConfigs {
		_, cerr := Compile(tc.cfg)
		_, eerr := NewEvaluator(tc.cfg)
		for who, err := range map[string]error{"Validate": tc.cfg.Validate(), "Compile": cerr, "NewEvaluator": eerr} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("config %d: %s = %v, want %s", i, who, err, tc.want)
			}
		}
	}
	// JSON cannot carry a NaN, so Compile must not let one through to a
	// Program whose rendering could then fail.
	nan := &Config{PathSelection: []PathSelectionStatement{{Name: "a", BgpNativeMinNextHop: MinNextHop{Percent: math.NaN()}}}}
	if _, err := Compile(nan); err == nil {
		t.Error("Compile accepted a NaN percentage")
	}
}

// TestProgramRendersOnce pins the two ways a Program gets its bytes: rendered
// from the config on first use, or kept from what it was parsed from.
func TestProgramRendersOnce(t *testing.T) {
	p, err := Compile(sampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(p.Config())
	got := p.JSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON() = %s, want %s", got, want)
	}
	if again := p.JSON(); &again[0] != &got[0] {
		t.Error("JSON() rendered twice")
	}
	spaced := append([]byte(" "), want...)
	q, err := ParseProgram(spaced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.JSON(), spaced) {
		t.Error("a parsed program must re-render to the bytes it was parsed from")
	}
	spaced[0] = 'x'
	if q.JSON()[0] != ' ' {
		t.Error("ParseProgram kept the caller's buffer")
	}
	for _, bad := range []string{"{bogus", `{"path_selection":[{"name":""}]}`} {
		if _, err := ParseProgram([]byte(bad)); err == nil {
			t.Errorf("ParseProgram(%s) succeeded", bad)
		}
	}
}

// corpusConfig exercises all three statement kinds with regex signatures.
func corpusConfig() *Config {
	return &Config{
		Version: 7,
		PathSelection: []PathSelectionStatement{{
			Name:        "prefer",
			Destination: Destination{Community: "SVC"},
			PathSets: []PathSet{
				{Name: "primary", Signature: PathSignature{NextHopRegex: "^primary"}, MinNextHop: MinNextHop{Count: 2}},
				{Name: "short", Signature: PathSignature{ASPathRegex: "^(100|200) 64512$"}},
				{Name: "backbone", Signature: PathSignature{OriginASN: 64512, PeerRegex: "^(primary|backup)"}},
			},
		}},
		RouteAttribute: []RouteAttributeStatement{{
			Name:           "weights",
			Destination:    Destination{Community: "SVC"},
			NextHopWeights: []NextHopWeight{{Signature: PathSignature{NextHopRegex: "^primary"}, Weight: 3}},
		}},
		RouteFilter: []RouteFilterStatement{{
			Name:          "no-specifics",
			PeerSignature: "^backup",
			Ingress:       &PrefixFilter{Rules: []PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 8, MaxMaskLength: 16}}},
		}},
	}
}

// corpusRun drives an evaluator over a fixed corpus of candidate sets and
// renders every decision.
func corpusRun(e *Evaluator) string {
	var b bytes.Buffer
	for round := 0; round < 3; round++ {
		for n := 1; n <= 6; n++ {
			var cands []RouteAttrs
			for i := 0; i < n; i++ {
				hop := fmt.Sprintf("%s.%d", []string{"primary", "backup", "other"}[(i+n)%3], i)
				r := mkRoute(fmt.Sprintf("10.%d.0.0/%d", n, 12+4*(i%3)), []uint32{uint32(100 * (1 + i%3)), 64512}, "SVC")
				r.NextHop, r.Peer = hop, hop
				cands = append(cands, r)
			}
			fmt.Fprintf(&b, "%+v|%+v|", e.SelectPaths(cands, n), e.AssignWeights(cands, 0))
			for i := range cands {
				fmt.Fprint(&b, e.AllowRoute(&cands[i], cands[i].Peer, Ingress))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestProgramSharedAcrossEvaluators runs many evaluators of one Program at
// once (under -race this is the proof a Program is read-only) and holds each
// to what an evaluator with a program of its own decides, with match-cache
// counters that see only their own evaluator's traffic.
func TestProgramSharedAcrossEvaluators(t *testing.T) {
	private, err := NewEvaluator(corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := corpusRun(private)
	wantHits, wantMisses := private.Cache().Stats()
	if wantHits == 0 || wantMisses == 0 {
		t.Fatalf("corpus must hit and miss the cache: %d hits, %d misses", wantHits, wantMisses)
	}

	shared, err := Compile(corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	evs := make([]*Evaluator, n)
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := range evs {
		evs[i] = shared.NewEvaluator()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Odd evaluators run the corpus twice: their counters must move
			// and their neighbours' must not.
			for k := 0; k <= i%2; k++ {
				got[i] = corpusRun(evs[i])
			}
			shared.JSON()
		}(i)
	}
	wg.Wait()
	for i, ev := range evs {
		if ev.Program() != shared {
			t.Fatalf("evaluator %d does not run the shared program", i)
		}
		if got[i] != want {
			t.Errorf("evaluator %d on the shared program decided differently:\n%s\nwant:\n%s", i, got[i], want)
		}
		hits, misses := ev.Cache().Stats()
		if i%2 == 0 && (hits != wantHits || misses != wantMisses) {
			t.Errorf("evaluator %d: %d hits, %d misses; a private evaluator has %d, %d", i, hits, misses, wantHits, wantMisses)
		}
		if i%2 == 1 && (misses != wantMisses || hits <= wantHits) {
			t.Errorf("evaluator %d ran twice: %d hits, %d misses; want more than %d hits and exactly %d misses", i, hits, misses, wantHits, wantMisses)
		}
	}
}

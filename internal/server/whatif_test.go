package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"centralium/internal/planner"
	"centralium/internal/telemetry"
)

// whatIfAllocCeiling bounds the allocations of one warm no-memo what-if per
// scenario (runWhatIf on a cached entry: fork, qualify, encode). Measured
// with go1.24 on linux/amd64, plain (-race):
//
//	scenario       compiling per request   deploying the entry's programs   sharing the base's topology
//	fig10          1477 (1503)             673 (696)                        651 (677)
//	decommission    506  (511)             486 (489)                        416 (419)
//	pod-drain      1020 (1032)             582 (595)                        524 (539)
//
// Fig10's and pod-drain's ceilings sit below the compiling column, so a
// what-if that compiles its intent again fails them; fig10's is about 1.25×
// its -race count. Decommission's and pod-drain's sit below the plain count
// of the deploying column, so a fork that copies the topology again fails
// them (their headroom over the -race count is about 14% and 6%).
// Decommission's intent has no regexes and its compile costs 18 allocations,
// so a recompile there stays under its ceiling.
var whatIfAllocCeiling = map[string]float64{
	"fig10":        845,
	"decommission": 480,
	"pod-drain":    575,
}

// whatIfBody is the fixed request of the allocation and concurrency tests.
func whatIfBody(scenario string) string {
	return fmt.Sprintf(`{"scenario":%q,"seed":%d,"no_memo":true,"max_funnel_share":0.9}`, scenario, confSeed)
}

// warmWhatIf decodes the fixed request for scenario and returns it with its
// warm cache entry.
func warmWhatIf(t *testing.T, s *Server, body string) (*WhatIfRequest, *cacheEntry) {
	t.Helper()
	req, err := DecodeWhatIfRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	entry, err := s.cache.get(req.Scenario, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return req, entry
}

// TestWhatIfAllocs pins the cost of a warm what-if: it deploys the cache
// entry's compiled programs and compiles nothing.
func TestWhatIfAllocs(t *testing.T) {
	s := New(Config{})
	for _, scenario := range planner.ScenarioNames() {
		req, entry := warmWhatIf(t, s, whatIfBody(scenario))
		if res := s.runWhatIf(req, entry); res.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", scenario, res.status, res.body)
		}
		got := testing.AllocsPerRun(20, func() { s.runWhatIf(req, entry) })
		t.Logf("%s: %.0f allocations per what-if", scenario, got)
		if ceiling := whatIfAllocCeiling[scenario]; got > ceiling {
			t.Errorf("%s: %.0f allocations per warm what-if, ceiling %.0f", scenario, got, ceiling)
		}
	}
}

// TestWhatIfSharedProgramsConcurrent runs what-ifs from many goroutines on
// one cache entry's shared programs (under -race in CI): every body is
// byte-identical to the one the same request gets served alone.
func TestWhatIfSharedProgramsConcurrent(t *testing.T) {
	baseline, allAtOnce, reversed := fig10Schedules(t)
	bodies := []string{whatIfBody("fig10")}
	for _, sched := range []string{baseline, allAtOnce, reversed} {
		bodies = append(bodies, fmt.Sprintf(`{"scenario":"fig10","seed":%d,"no_memo":true,"schedule":%s,"max_funnel_share":0.55}`, confSeed, quote(sched)))
	}
	s := New(Config{})
	want := make([][]byte, len(bodies))
	reqs := make([]*WhatIfRequest, len(bodies))
	var entry *cacheEntry
	for i, body := range bodies {
		reqs[i], entry = warmWhatIf(t, s, body)
		res := s.runWhatIf(reqs[i], entry)
		if res.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, res.status, res.body)
		}
		want[i] = res.body
	}
	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(reqs)
				if got := s.runWhatIf(reqs[i], entry); !bytes.Equal(got.body, want[i]) {
					t.Errorf("goroutine %d request %d: body\n%s\nwant\n%s", g, i, got.body, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBroadcasterSubscriberCount holds the no-listener shortcut: with
// nobody subscribed a publish counts nothing, a subscriber that joins while
// a request is publishing gets every event published after it joined, and
// close still closes every channel. Run under -race in CI: two publishers
// stand for two workers' what-if forks.
func TestBroadcasterSubscriberCount(t *testing.T) {
	b := newBroadcaster(64)
	const before, after = 20, 16
	joined := make(chan struct{})
	halfway := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tap := b.tap(fmt.Sprintf("whatif w%d", w))
			for i := 0; i < before; i++ {
				tap.Emit(telemetry.Event{Time: int64(i)})
			}
			halfway <- struct{}{}
			<-joined
			for i := before; i < before+after; i++ {
				tap.Emit(telemetry.Event{Time: int64(i)})
			}
		}(w)
	}
	<-halfway
	<-halfway
	if subs, sent, dropped := b.stats(); subs != 0 || sent != 0 || dropped != 0 {
		t.Fatalf("with no subscriber: stats %d/%d/%d, want 0/0/0", subs, sent, dropped)
	}
	_, ch := b.subscribe()
	close(joined)
	wg.Wait()
	next := map[string]int64{"whatif w0": before, "whatif w1": before}
	for i := 0; i < 2*after; i++ {
		ev := <-ch
		if ev.Event.Time != next[ev.Source] {
			t.Fatalf("%s: got event %d, want %d", ev.Source, ev.Event.Time, next[ev.Source])
		}
		next[ev.Source]++
	}
	if subs, sent, dropped := b.stats(); subs != 1 || sent != 2*after || dropped != 0 {
		t.Errorf("after the join: stats %d/%d/%d, want 1/%d/0", subs, sent, dropped, 2*after)
	}

	_, ch2 := b.subscribe()
	b.close()
	for _, c := range []<-chan StreamEvent{ch, ch2} {
		if _, ok := <-c; ok {
			t.Errorf("a subscriber channel is still open after close")
		}
	}
	b.publish(StreamEvent{Source: "late"})
	if subs, sent, _ := b.stats(); subs != 0 || sent != 2*after {
		t.Errorf("after close: %d subscribers, %d sent", subs, sent)
	}
}

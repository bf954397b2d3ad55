package session

import (
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/bgp/wire"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

var defaultRoute = netip.MustParsePrefix("0.0.0.0/0")

// pairOverTCP establishes one session between two fresh endpoints over a
// real TCP loopback connection and returns them.
func pairOverTCP(t *testing.T, reg *Registry, hold time.Duration) (a, b *Endpoint) {
	t.Helper()
	spA := bgp.NewSpeaker(bgp.Config{ID: "a", ASN: 65001, Multipath: true}, nil)
	spB := bgp.NewSpeaker(bgp.Config{ID: "b", ASN: 65002, Multipath: true}, nil)
	var err error
	a, err = NewEndpoint(spA, Config{RouterID: netip.MustParseAddr("10.0.0.1"), Registry: reg, HoldTime: hold})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewEndpoint(spB, Config{RouterID: netip.MustParseAddr("10.0.0.2"), Registry: reg, HoldTime: hold})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	errs := make(chan error, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errs <- err
			return
		}
		errs <- b.Establish(conn, "s1", "a", 100)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	errs <- a.Establish(conn, "s1", "b", 100)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("establish: %v", err)
		}
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEstablishAndPropagateOverTCP(t *testing.T) {
	reg := NewRegistry()
	a, b := pairOverTCP(t, reg, time.Second)

	// a originates; b must learn the route over the wire, communities and
	// AS path intact.
	if err := a.WithSpeaker(func(s *bgp.Speaker) {
		s.Originate(defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "route on b", func() bool {
		var got bool
		b.WithSpeaker(func(s *bgp.Speaker) { got = s.FIB().Lookup(defaultRoute) != nil })
		return got
	})
	b.WithSpeaker(func(s *bgp.Speaker) {
		if s.Stats().UpdatesReceived == 0 {
			t.Error("no updates received")
		}
	})
}

func TestWithdrawOverTCP(t *testing.T) {
	reg := NewRegistry()
	a, b := pairOverTCP(t, reg, time.Second)
	a.WithSpeaker(func(s *bgp.Speaker) {
		s.Originate(defaultRoute, nil, core.OriginIGP, 0)
	})
	waitFor(t, "route on b", func() bool {
		var got bool
		b.WithSpeaker(func(s *bgp.Speaker) { got = s.FIB().Lookup(defaultRoute) != nil })
		return got
	})
	a.WithSpeaker(func(s *bgp.Speaker) { s.WithdrawOrigin(defaultRoute) })
	waitFor(t, "withdrawal on b", func() bool {
		var gone bool
		b.WithSpeaker(func(s *bgp.Speaker) { gone = s.FIB().Lookup(defaultRoute) == nil })
		return gone
	})
}

func TestKeepaliveSustainsSession(t *testing.T) {
	reg := NewRegistry()
	a, b := pairOverTCP(t, reg, 300*time.Millisecond)
	// Idle well past the hold time: keepalives must keep the session up.
	// Rather than a blind sleep, wait until each side has RECEIVED enough
	// keepalives to prove more than a full hold time of idle protocol
	// activity: they tick at HoldTime/3 and the handshake keepalive is
	// consumed before the read loop starts, so 4 counted spans > HoldTime.
	waitFor(t, "keepalives on both sides", func() bool {
		return a.KeepalivesReceived() >= 4 && b.KeepalivesReceived() >= 4
	})
	if len(a.Sessions()) != 1 || len(b.Sessions()) != 1 {
		t.Fatalf("sessions dropped: a=%v b=%v", a.Sessions(), b.Sessions())
	}
	// And routes still propagate afterwards.
	a.WithSpeaker(func(s *bgp.Speaker) { s.Originate(defaultRoute, nil, core.OriginIGP, 0) })
	waitFor(t, "route on b after idle", func() bool {
		var got bool
		b.WithSpeaker(func(s *bgp.Speaker) { got = s.FIB().Lookup(defaultRoute) != nil })
		return got
	})
}

func TestPeerDeathWithdrawsRoutes(t *testing.T) {
	reg := NewRegistry()
	a, b := pairOverTCP(t, reg, 300*time.Millisecond)
	a.WithSpeaker(func(s *bgp.Speaker) { s.Originate(defaultRoute, nil, core.OriginIGP, 0) })
	waitFor(t, "route on b", func() bool {
		var got bool
		b.WithSpeaker(func(s *bgp.Speaker) { got = s.FIB().Lookup(defaultRoute) != nil })
		return got
	})
	// Kill a without a CEASE: b's hold timer must fire, tearing the session
	// down and flushing the stale route.
	a.Close()
	waitFor(t, "session teardown on b", func() bool { return len(b.Sessions()) == 0 })
	var gone bool
	b.WithSpeaker(func(s *bgp.Speaker) { gone = s.FIB().Lookup(defaultRoute) == nil })
	if !gone {
		t.Fatal("stale route survived peer death")
	}
}

// TestConcurrentTeardown is the regression test for two teardown races:
// Close and the read loop's deferred teardown both tear a dying session
// down, and used to double-close conn.done ("close of closed channel");
// and the wake-up of a writer parked in dequeue could be lost between its
// check of done and its Wait, leaving Close (in this test's cleanup)
// waiting forever. Run under -race -count=20 or more.
func TestConcurrentTeardown(t *testing.T) {
	a, _ := pairOverTCP(t, NewRegistry(), time.Second)
	a.mu.Lock()
	c := a.conns["s1"]
	a.mu.Unlock()
	if c == nil {
		t.Fatal("session s1 not registered")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a.teardown(c)
		}()
	}
	close(start)
	wg.Wait()
	select {
	case <-c.done:
	default:
		t.Fatal("done not closed after teardown")
	}
	if n := len(a.Sessions()); n != 0 {
		t.Fatalf("%d sessions left after teardown", n)
	}
}

// TestDeliverHandsOverFreshSlices holds the endpoint's side of the
// speaker's immutability contract (bgp.Speaker.HandleUpdate keeps an
// UPDATE's AS path and communities by reference): what deliver passes on is
// freshly allocated, so overwriting the wire message afterwards — as a
// reader reusing its buffers would — cannot reach into the Adj-RIB-In.
func TestDeliverHandsOverFreshSlices(t *testing.T) {
	reg := NewRegistry()
	a, _ := pairOverTCP(t, reg, time.Second)
	a.mu.Lock()
	c := a.conns["s1"]
	a.mu.Unlock()
	p := netip.MustParsePrefix("10.9.0.0/16")
	m := &wire.Update{
		ASPath:      []wire.ASPathSegment{{Type: wire.SegSequence, ASNs: []uint32{65002, 64999}}},
		Communities: reg.Encode([]string{"RACK"}),
		NLRI:        []netip.Prefix{p},
	}
	a.deliver(c, m)
	m.ASPath[0].ASNs[1] = 1
	m.Communities[0] = 0
	var got []core.RouteAttrs
	if err := a.WithSpeaker(func(sp *bgp.Speaker) { got = sp.Candidates(p) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d candidates for %v, want 1", len(got), p)
	}
	if want := []uint32{65002, 64999}; !slices.Equal(got[0].ASPath, want) {
		t.Errorf("AS path %v, want %v: the speaker's route aliases the wire message", got[0].ASPath, want)
	}
	if want := []string{"RACK"}; !slices.Equal(got[0].Communities, want) {
		t.Errorf("communities %v, want %v: the speaker's route aliases the wire message", got[0].Communities, want)
	}
}

func TestIBGPPeerRejected(t *testing.T) {
	reg := NewRegistry()
	spA := bgp.NewSpeaker(bgp.Config{ID: "a", ASN: 65001}, nil)
	spB := bgp.NewSpeaker(bgp.Config{ID: "b", ASN: 65001}, nil) // same ASN
	a, _ := NewEndpoint(spA, Config{RouterID: netip.MustParseAddr("10.0.0.1"), Registry: reg})
	b, _ := NewEndpoint(spB, Config{RouterID: netip.MustParseAddr("10.0.0.2"), Registry: reg})
	defer a.Close()
	defer b.Close()

	c1, c2 := net.Pipe()
	errs := make(chan error, 2)
	go func() { errs <- a.Establish(c1, "s1", "b", 100) }()
	go func() { errs <- b.Establish(c2, "s1", "a", 100) }()
	failed := false
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("iBGP peer accepted")
	}
}

func TestEndpointValidation(t *testing.T) {
	sp := bgp.NewSpeaker(bgp.Config{ID: "a", ASN: 1}, nil)
	if _, err := NewEndpoint(sp, Config{RouterID: netip.MustParseAddr("::1")}); err == nil {
		t.Fatal("IPv6 router ID accepted")
	}
}

func TestThreeNodeLineOverTCP(t *testing.T) {
	// origin(65001) -- mid(65002) -- leaf(65003): transit propagation with
	// AS-path growth over two real sessions.
	reg := NewRegistry()
	mk := func(id string, asn uint32, rid string) *Endpoint {
		sp := bgp.NewSpeaker(bgp.Config{ID: id, ASN: asn, Multipath: true}, nil)
		e, err := NewEndpoint(sp, Config{RouterID: netip.MustParseAddr(rid), Registry: reg, HoldTime: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	origin := mk("origin", 65001, "10.0.0.1")
	mid := mk("mid", 65002, "10.0.0.2")
	leaf := mk("leaf", 65003, "10.0.0.3")
	defer origin.Close()
	defer mid.Close()
	defer leaf.Close()

	connect := func(x, y *Endpoint, sess bgp.SessionID, xName, yName string) {
		t.Helper()
		c1, c2 := net.Pipe()
		errs := make(chan error, 2)
		go func() { errs <- x.Establish(c1, sess, yName, 100) }()
		go func() { errs <- y.Establish(c2, sess, xName, 100) }()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("connect %s-%s: %v", xName, yName, err)
			}
		}
	}
	connect(origin, mid, "s-om", "origin", "mid")
	connect(mid, leaf, "s-ml", "mid", "leaf")

	origin.WithSpeaker(func(s *bgp.Speaker) {
		s.Originate(defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
	})
	waitFor(t, "route on leaf", func() bool {
		var got bool
		leaf.WithSpeaker(func(s *bgp.Speaker) { got = s.FIB().Lookup(defaultRoute) != nil })
		return got
	})
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	v1 := r.Register("A")
	if r.Register("A") != v1 {
		t.Fatal("re-register changed value")
	}
	v2 := r.Register("B")
	if v1 == v2 {
		t.Fatal("collision")
	}
	names := r.Decode(r.Encode([]string{"A", "B"}))
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("round trip = %v", names)
	}
	// Unknown values render numerically.
	out := r.Decode([]wire.Community{0x00010002})
	if len(out) != 1 || out[0] != "1:2" {
		t.Fatalf("unknown decode = %v", out)
	}
}

func TestLiveFabricMeshConvergence(t *testing.T) {
	// A real multi-node run: the Figure 10 topology entirely over live
	// sessions, fully concurrent.
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	lf, err := BuildLive(tp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	lf.Endpoints[topo.EBID(0)].WithSpeaker(func(s *bgp.Speaker) {
		s.Originate(defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
	})
	if !lf.WaitConverged(defaultRoute, true, 10*time.Second) {
		t.Fatal("live fabric did not converge")
	}
	// FSWs ECMP over both SSWs, exactly like the event-engine emulation.
	lf.Endpoints[topo.FSWID(0, 0)].WithSpeaker(func(s *bgp.Speaker) {
		if got := len(s.FIB().Lookup(defaultRoute)); got != 2 {
			t.Errorf("FSW live ECMP = %d paths, want 2", got)
		}
	})
	// Withdrawal propagates everywhere.
	lf.Endpoints[topo.EBID(0)].WithSpeaker(func(s *bgp.Speaker) {
		s.WithdrawOrigin(defaultRoute)
	})
	if !lf.WaitConverged(defaultRoute, false, 10*time.Second) {
		t.Fatal("live withdrawal did not converge")
	}
}

func TestLiveMatchesEmulation(t *testing.T) {
	// The live concurrent run and the deterministic event engine must agree
	// on the converged FIB shape for every device.
	tp := topo.BuildMesh(topo.MeshParams{Planes: 2, Grids: 2, PerGroup: 2, FSWsPerPlane: 2})

	lf, err := BuildLive(tp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for i := 0; i < 2; i++ {
		lf.Endpoints[topo.EBID(i)].WithSpeaker(func(s *bgp.Speaker) {
			s.Originate(defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
		})
	}
	if !lf.WaitConverged(defaultRoute, true, 10*time.Second) {
		t.Fatal("live mesh did not converge")
	}

	em := fabric.New(tp, fabric.Options{Seed: 1})
	for i := 0; i < 2; i++ {
		em.OriginateAt(topo.EBID(i), defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, 0)
	}
	em.Converge()

	for _, d := range tp.Devices() {
		var liveHops int
		lf.Endpoints[d.ID].WithSpeaker(func(s *bgp.Speaker) {
			liveHops = len(s.FIB().Lookup(defaultRoute))
		})
		emHops := len(em.Speaker(d.ID).FIB().Lookup(defaultRoute))
		if liveHops != emHops {
			t.Errorf("%s: live %d paths, emulation %d", d.ID, liveHops, emHops)
		}
	}
}

func TestIPv6DefaultRouteOverLiveSession(t *testing.T) {
	// The paper's dual default routes (0.0.0.0/0 and ::/0, §4.4) over one
	// real session: v4 via classic NLRI, v6 via MP-BGP.
	reg := NewRegistry()
	a, b := pairOverTCP(t, reg, time.Second)
	v6Default := netip.MustParsePrefix("::/0")
	v6Specific := netip.MustParsePrefix("2001:db8::/32")

	a.WithSpeaker(func(s *bgp.Speaker) {
		s.Originate(defaultRoute, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
		s.Originate(v6Default, []string{"BACKBONE_DEFAULT_ROUTE"}, core.OriginIGP, 0)
		s.Originate(v6Specific, []string{"SVC"}, core.OriginIGP, 0)
	})
	waitFor(t, "both defaults + v6 specific on b", func() bool {
		var ok bool
		b.WithSpeaker(func(s *bgp.Speaker) {
			ok = s.FIB().Lookup(defaultRoute) != nil &&
				s.FIB().Lookup(v6Default) != nil &&
				s.FIB().Lookup(v6Specific) != nil
		})
		return ok
	})
	// Communities survive the MP path.
	b.WithSpeaker(func(s *bgp.Speaker) {
		for _, c := range s.Candidates(v6Default) {
			if !c.HasCommunity("BACKBONE_DEFAULT_ROUTE") {
				t.Errorf("v6 default lost its community: %+v", c)
			}
		}
	})
	// v6 withdrawal travels via MP_UNREACH.
	a.WithSpeaker(func(s *bgp.Speaker) { s.WithdrawOrigin(v6Specific) })
	waitFor(t, "v6 withdrawal on b", func() bool {
		var gone bool
		b.WithSpeaker(func(s *bgp.Speaker) { gone = s.FIB().Lookup(v6Specific) == nil })
		return gone
	})
	// The v4 routes are untouched.
	b.WithSpeaker(func(s *bgp.Speaker) {
		if s.FIB().Lookup(defaultRoute) == nil || s.FIB().Lookup(v6Default) == nil {
			t.Error("withdrawal clobbered unrelated families")
		}
	})
}

package fabric

import (
	"net/netip"
	"testing"
	"time"

	"centralium/internal/bgp"
	"centralium/internal/topo"
)

// TestConvergeBudgetPanic pins Converge's exhaustion reporting: a
// non-quiescing schedule (each event re-arms itself) must hit
// DefaultMaxEvents and panic rather than spin forever.
func TestConvergeBudgetPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("burns the full 5M-event budget")
	}
	n := New(lineTopo(), Options{Seed: 1})
	var loop func()
	loop = func() { n.After(time.Millisecond, loop) }
	n.After(time.Millisecond, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("Converge did not panic on budget exhaustion")
		}
		if n.EventsProcessed() < DefaultMaxEvents {
			t.Errorf("processed %d events, want the full %d budget", n.EventsProcessed(), DefaultMaxEvents)
		}
	}()
	n.Converge()
}

// TestSessionEpochKillsInFlight proves a message in flight when its session
// bounces dies with the old incarnation: the leaf never sees the route
// until the session is re-established and the origin resyncs.
func TestSessionEpochKillsInFlight(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 5})
	n.Converge()
	sessions := n.SessionList()
	var midLeaf bgp.SessionID
	for _, s := range sessions {
		if (s.A == "mid" && s.B == "leaf") || (s.A == "leaf" && s.B == "mid") {
			midLeaf = s.ID
		}
		if !s.Up {
			t.Errorf("session %s down after converge", s.ID)
		}
	}
	if midLeaf == "" {
		t.Fatal("mid--leaf session not found")
	}

	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	// The origin->mid hop needs >= BaseLatency (1ms); mid's re-advertisement
	// to leaf is then in flight for at least another BaseLatency. Bounce the
	// session while that second hop is airborne.
	n.After(8*time.Millisecond, func() {
		if !n.SetSessionUp(midLeaf, false) {
			t.Error("SetSessionUp(down) failed")
		}
	})
	n.Converge()
	if n.NextHopWeights("leaf", defaultRoute) != nil {
		t.Fatal("leaf learned the route over a dead session")
	}
	if got := n.LiveSessions("leaf"); got != 0 {
		t.Errorf("leaf LiveSessions = %d, want 0", got)
	}

	// Re-establish: the epoch advanced, the speakers resync, the route lands.
	if !n.SetSessionUp(midLeaf, true) {
		t.Fatal("SetSessionUp(up) failed")
	}
	n.Converge()
	if n.NextHopWeights("leaf", defaultRoute) == nil {
		t.Fatal("leaf missing the route after session re-establish")
	}
	if n.SetSessionUp("no-such-session", false) {
		t.Error("SetSessionUp accepted an unknown session ID")
	}
}

// TestRestartDeviceRePeering covers the restart lifecycle: sessions drop at
// the crash, in-flight state dies, and after downFor every session whose
// far end is still up re-peers.
func TestRestartDeviceRePeering(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 9})
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()

	n.RestartDevice("mid", 5*time.Millisecond, false)
	if got := n.LiveSessions("mid"); got != 0 {
		t.Fatalf("mid LiveSessions = %d right after crash, want 0", got)
	}
	n.Converge()
	if got := n.LiveSessions("mid"); got != 2 {
		t.Fatalf("mid LiveSessions = %d after re-peering, want 2", got)
	}
	if n.NextHopWeights("leaf", defaultRoute) == nil {
		t.Fatal("leaf missing the route after mid re-peered")
	}

	// Unknown and already-down devices are no-ops.
	n.RestartDevice("no-such-device", time.Millisecond, false)
	n.SetDeviceUp("leaf", false)
	n.RestartDevice("leaf", time.Millisecond, false)
	n.Converge()

	// Powering a device off mid-restart cancels the re-peering.
	n.RestartDevice("mid", 10*time.Millisecond, true)
	n.After(2*time.Millisecond, func() { n.SetDeviceUp("mid", false) })
	n.Converge()
	if got := n.LiveSessions("mid"); got != 0 {
		t.Fatalf("mid LiveSessions = %d after power-off during restart, want 0", got)
	}
}

// TestPerturberDropAndDelay covers the perturber hook's two actions and
// its removal.
func TestPerturberDropAndDelay(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 2})
	n.Converge()
	dropped := 0
	n.SetPerturber(func(sess bgp.SessionID, from, to topo.DeviceID, u bgp.Update) Perturbation {
		if to == "leaf" {
			dropped++
			return Perturbation{Drop: true}
		}
		return Perturbation{ExtraDelay: 3 * time.Millisecond}
	})
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()
	if dropped == 0 {
		t.Fatal("perturber never saw a leaf-bound message")
	}
	if n.NextHopWeights("leaf", defaultRoute) != nil {
		t.Fatal("leaf learned the route despite drops")
	}
	if n.NextHopWeights("mid", defaultRoute) == nil {
		t.Fatal("mid missing the route (delays must not lose messages)")
	}
	n.SetPerturber(nil)
	n.WithdrawAt("origin", defaultRoute)
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()
	if n.NextHopWeights("leaf", defaultRoute) == nil {
		t.Fatal("leaf missing the route after perturber removal")
	}
}

// TestOriginateAggregateAt covers advertise-on-behalf origination: peers
// learn the aggregate but the originator installs no local delivery entry.
func TestOriginateAggregateAt(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 3})
	agg := netip.MustParsePrefix("10.0.0.0/8")
	n.OriginateAggregateAt("mid", agg, nil, 0)
	n.Converge()
	if n.NextHopWeights("leaf", agg) == nil {
		t.Fatal("leaf missing the aggregate")
	}
	if hops := n.NextHopWeights("mid", agg); hops != nil {
		t.Fatalf("mid has a local entry for the aggregate: %v", hops)
	}
}

// TestSetPrependToward covers the per-peer export prepend: the prepended
// direction loses the tie-break while other peers are unaffected.
func TestSetPrependToward(t *testing.T) {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "a", Layer: topo.LayerFAUU})
	tp.AddDevice(topo.Device{ID: "b", Layer: topo.LayerFAUU})
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	tp.AddLink("origin", "a", 100)
	tp.AddLink("origin", "b", 100)
	tp.AddLink("a", "leaf", 100)
	tp.AddLink("b", "leaf", 100)
	n := New(tp, Options{Seed: 4})
	n.SetPrependToward("a", "leaf", 3)
	n.OriginateAt("origin", defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()
	hops := n.NextHopWeights("leaf", defaultRoute)
	if len(hops) != 1 || hops["b"] == 0 {
		t.Fatalf("leaf hops = %v, want only b (a's path is prepended)", hops)
	}
}

// TestSessionPeerResolution covers SessionPeer's three outcomes.
func TestSessionPeerResolution(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 6})
	sid := n.SessionList()[0].ID
	info := n.SessionList()[0]
	if peer, ok := n.SessionPeer(info.A, sid); !ok || peer != info.B {
		t.Errorf("SessionPeer(%s) = %s,%v", info.A, peer, ok)
	}
	if peer, ok := n.SessionPeer(info.B, sid); !ok || peer != info.A {
		t.Errorf("SessionPeer(%s) = %s,%v", info.B, peer, ok)
	}
	if _, ok := n.SessionPeer("leaf", "no-such-session"); ok {
		t.Error("SessionPeer resolved an unknown session")
	}
	if _, ok := n.SessionPeer("origin", sid); ok && info.A != "origin" && info.B != "origin" {
		t.Error("SessionPeer resolved a session the device is not on")
	}
}

// TestScheduleClampsToPast covers the past-timestamp clamp on both
// schedule paths: a callback scheduled "in the past" fires at now.
func TestScheduleClampsToPast(t *testing.T) {
	n := New(lineTopo(), Options{Seed: 8})
	n.RunFor(10 * time.Millisecond)
	fired := false
	n.After(-5*time.Millisecond, func() { fired = true })
	n.Converge()
	if !fired {
		t.Fatal("past-scheduled callback never fired")
	}
	e := n.eng
	s := &n.sess[0]
	e.push(e.now-100, event{sess: s, epoch: s.epoch - 1})
	n.Converge() // stale session epoch: delivered event is discarded quietly
	if n.Now() < 10*int64(time.Millisecond) {
		t.Fatalf("clock moved backwards: %d", n.Now())
	}
}

package telemetry

import (
	"net/netip"
	"reflect"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestRing(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Push(Event{Time: int64(i)})
	}
	if r.Len() != 4 || r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if ev.Time != int64(6+i) {
			t.Fatalf("snapshot[%d].Time = %d, want %d", i, ev.Time, 6+i)
		}
	}
}

func TestFunnelingDetector(t *testing.T) {
	d := NewFunnelingDetector(2)
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.10, FairShare: 0.0625}); ok {
		t.Fatal("fired below threshold")
	}
	a, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.20, FairShare: 0.0625})
	if !ok || a.Device != "a" {
		t.Fatalf("did not fire above threshold: %v %v", a, ok)
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "a", Share: 0.5, FairShare: 0.0625}); ok {
		t.Fatal("re-fired for same device")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Share: 0.5, FairShare: 0.0625}); !ok {
		t.Fatal("did not fire for second device")
	}
}

func TestNHGPressureDetector(t *testing.T) {
	d := NewNHGPressureDetector(0.9)
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", NHGroups: 7, NHGLimit: 16}); ok {
		t.Fatal("fired at low occupancy")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", NHGroups: 15, NHGLimit: 16}); !ok {
		t.Fatal("did not fire at high water")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "b", NHGroups: 1, NHGLimit: 16, Overflows: 2}); !ok {
		t.Fatal("did not fire on overflow")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "c", NHGroups: 100}); ok {
		t.Fatal("fired with no hardware limit")
	}
}

func TestChurnDetector(t *testing.T) {
	d := NewChurnDetector(1000, 3)
	for i := 0; i < 3; i++ {
		if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: int64(i)}); ok {
			t.Fatalf("fired at event %d", i)
		}
	}
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 3}); !ok {
		t.Fatal("did not fire past limit")
	}
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 4}); ok {
		t.Fatal("re-fired while hot")
	}
	// Far in the future the window empties and the detector re-arms.
	if _, ok := d.Observe(Event{Kind: KindAdjRIBIn, Device: "a", Time: 1e6}); ok {
		t.Fatal("fired after quiet period")
	}
}

func TestBlackholeDetector(t *testing.T) {
	d := NewBlackholeDetector(0.01)
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", Prefix: pfx("10.0.0.0/24")}); ok {
		t.Fatal("fired on cold write")
	}
	if _, ok := d.Observe(Event{Kind: KindFIBWrite, Device: "a", Prefix: pfx("10.0.0.0/24"), Warm: true}); !ok {
		t.Fatal("did not fire on warm write")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Blackholed: 0.2}); !ok {
		t.Fatal("did not fire on loss sample")
	}
	if _, ok := d.Observe(Event{Kind: KindTrafficSample, Device: "b", Blackholed: 0.005}); ok {
		t.Fatal("fired below loss threshold")
	}
}

func TestCollectorInProcess(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	c.Emit(Event{Kind: KindTrafficSample, Device: "fadu1", Time: 1, Share: 0.5, FairShare: 0.0625})
	c.Emit(Event{Kind: KindAdjRIBIn, Device: "fsw1", Time: 2, Prefix: pfx("10.0.0.0/24")})

	if got := c.EventCount(); got != 2 {
		t.Fatalf("EventCount = %d", got)
	}
	if devs := c.Devices(); !reflect.DeepEqual(devs, []string{"fadu1", "fsw1"}) {
		t.Fatalf("Devices = %v", devs)
	}
	if evs := c.Events("fsw1"); len(evs) != 1 || evs[0].Prefix != pfx("10.0.0.0/24") {
		t.Fatalf("Events(fsw1) = %v", evs)
	}
	got := c.AlertsBy("funneling")
	if len(got) != 1 || got[0].Device != "fadu1" {
		t.Fatalf("funneling alerts = %v", got)
	}
	if alerts := c.Alerts(); len(alerts) != 1 {
		t.Fatalf("Alerts = %v", alerts)
	}
}

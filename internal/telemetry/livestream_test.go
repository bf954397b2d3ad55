package telemetry_test

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"centralium/internal/bgp"
	"centralium/internal/telemetry"
)

// TestLiveFleetStream runs a fleet of speakers on their own goroutines, all
// tapped straight into one collector. Run under -race it exercises the
// collector's locking; the counts check that no event is lost or filed
// under another device.
func TestLiveFleetStream(t *testing.T) {
	c := telemetry.NewCollector(telemetry.CollectorOptions{})

	const speakers = 8
	const prefixes = 100 // per speaker
	// One session-up per speaker, then per prefix an adj-rib-in, a
	// best-path and a fib-write.
	const perSpeaker = 1 + prefixes*3

	var wg sync.WaitGroup
	for i := 0; i < speakers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			device := fmt.Sprintf("du%d", i)
			peerASN := uint32(65100 + i)
			sp := bgp.NewSpeaker(bgp.Config{ID: device, ASN: uint32(65000 + i), Multipath: true},
				func() int64 { return 0 })
			sp.SetTap(c)
			sp.AddPeer("sess0", "peer0", peerASN, 100)
			for j := 0; j < prefixes; j++ {
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), byte(j), 0}), 24)
				sp.HandleUpdate("sess0", bgp.Update{Prefix: p, ASPath: []uint32{peerASN}})
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.EventCount(), uint64(speakers*perSpeaker); got != want {
		t.Fatalf("collector ingested %d events, want %d", got, want)
	}
	devs := c.Devices()
	if len(devs) != speakers {
		t.Fatalf("collector saw %d devices (%v), want %d", len(devs), devs, speakers)
	}
	for i, dev := range devs {
		evs := c.Events(dev)
		if len(evs) != perSpeaker {
			t.Fatalf("%s stream holds %d events, want %d", dev, len(evs), perSpeaker)
		}
		own := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		for _, ev := range evs {
			if ev.Device != dev {
				t.Fatalf("event on %s stream claims device %s", dev, ev.Device)
			}
			if ev.Prefix.IsValid() && !own.Contains(ev.Prefix.Addr()) {
				t.Fatalf("%s stream carries %s, another speaker's prefix", dev, ev.Prefix)
			}
		}
	}
}

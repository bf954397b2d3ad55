package snapshot

// The concurrency contract of a captured snapshot (see the Snapshot doc):
// the state is immutable, so restores, forks, and encodes may run from any
// number of goroutines against one shared snapshot. These tests hold that
// contract under the race detector and check the stronger determinism
// property the centraliumd serving path depends on: a perturbation run on
// a concurrently-taken fork ends in the byte-identical state the same
// perturbation reaches on a serially-taken fork.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"centralium/internal/fabric"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// convergedBase builds a small converged fabric and captures it.
func convergedBase(t *testing.T) *Snapshot {
	t.Helper()
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	n := fabric.New(tp, fabric.Options{Seed: 7})
	n.OriginateAt(topo.EBID(0), defaultRoute, []string{backboneCommunity}, 0)
	n.Converge()
	snap, err := Capture(n)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return snap
}

// drainAndEncode runs the reference perturbation on a fork and returns the
// resulting canonical state.
func drainAndEncode(t *testing.T, n *fabric.Network, dev topo.DeviceID) []byte {
	t.Helper()
	n.After(time.Millisecond, func() { n.SetDrained(dev, true) })
	n.Converge()
	snap, err := Capture(n)
	if err != nil {
		t.Fatalf("capture fork: %v", err)
	}
	data, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode fork: %v", err)
	}
	return data
}

func TestConcurrentFork(t *testing.T) {
	snap := convergedBase(t)
	before, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode base: %v", err)
	}

	// Serial reference: one fork, one drain, one end state.
	ref, err := snap.Restore()
	if err != nil {
		t.Fatalf("restore reference: %v", err)
	}
	want := drainAndEncode(t, ref, topo.SSWID(0, 0))

	// 16 goroutines share the snapshot: each restores its own fork, runs
	// the same perturbation, and must reach the same end state — while
	// other goroutines concurrently re-encode and fingerprint the base.
	const workers = 16
	got := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				// Readers: exercise the encode paths concurrently.
				if _, err := snap.EncodeCanonical(); err != nil {
					errs[i] = err
					return
				}
				if _, err := snap.Fingerprint(); err != nil {
					errs[i] = err
					return
				}
			}
			fork, err := snap.Restore()
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = drainAndEncode(t, fork, topo.SSWID(0, 0))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("goroutine %d: fork end state diverged from serial reference", i)
		}
	}

	after, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode base after forks: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("base snapshot state changed while forks ran")
	}
}

func TestConcurrentForkBatch(t *testing.T) {
	// Snapshot.Fork itself (the batch form) taken from multiple goroutines
	// against one shared snapshot.
	snap := convergedBase(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forks, err := snap.Fork(3)
			if err != nil {
				errs[i] = err
				return
			}
			for _, f := range forks {
				f.Converge() // already quiescent; must be a no-op everywhere
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

func TestEncodeCanonicalIgnoresMeta(t *testing.T) {
	snap := convergedBase(t)
	canon, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode canonical: %v", err)
	}
	fp1, err := snap.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}

	snap.Meta["origin"] = "test"
	withMeta, err := snap.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	canon2, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode canonical with meta: %v", err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Error("EncodeCanonical changed when Meta changed")
	}
	if bytes.Equal(canon, withMeta) {
		t.Error("Encode with metadata should differ from the canonical encoding")
	}
	fp2, err := snap.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint with meta: %v", err)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprint changed with Meta: %s vs %s", fp1, fp2)
	}
	if snap.Meta["origin"] != "test" {
		t.Error("Meta clobbered by canonical encode")
	}

	// The decoded round trip preserves metadata and canonical identity.
	dec, err := Decode(withMeta)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Meta["origin"] != "test" {
		t.Errorf("decoded Meta = %v", dec.Meta)
	}
	decCanon, err := dec.EncodeCanonical()
	if err != nil {
		t.Fatalf("encode decoded: %v", err)
	}
	if !bytes.Equal(decCanon, canon) {
		t.Error("decoded snapshot's canonical encoding differs")
	}
}

// TestSiblingForksBuildAndRead: a restored network builds each speaker's maps
// out of its record in the shared state on first use, and answers FIB lookups
// out of the record until the first write. So one fork that builds its
// speakers — every one read, and a drain run through the fabric — and a
// sibling fork of the same state that only reads never-touched FIBs through
// traffic.Propagator meet in the state's memory, and must meet there only to
// read: the race detector checks it, the reader's answers must equal those
// of built tables, and the state's bytes must stay what they were.
func TestSiblingForksBuildAndRead(t *testing.T) {
	snap, err := Capture(buildFabric(corpusFabric, 11))
	if err != nil {
		t.Fatal(err)
	}
	before, err := snap.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var demands []traffic.Demand
	tp, _ := snap.Topology()
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		demands = append(demands, traffic.Demand{Source: rsw.ID, Prefix: defaultRoute, Volume: 1})
	}
	ref, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tp.Devices() {
		ref.Speaker(d.ID).FIB().Stats() // builds the table: the reference reads built FIBs
	}
	want := (&traffic.Propagator{Net: ref}).Run(demands)

	builder, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, d := range tp.Devices() {
			if len(builder.Speaker(d.ID).Peers()) == 0 {
				t.Errorf("%s restored with no peers", d.ID)
			}
		}
		builder.SetDrained(topo.SSWID(0, 0), true)
		builder.Converge()
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			got := (&traffic.Propagator{Net: reader}).Run(demands)
			if got.Delivered != want.Delivered || got.Blackholed != want.Blackholed || got.Looped != want.Looped {
				t.Errorf("run %d on the reading fork: delivered %v blackholed %v looped %v, want %v %v %v",
					i, got.Delivered, got.Blackholed, got.Looped, want.Delivered, want.Blackholed, want.Looped)
				return
			}
		}
	}()
	wg.Wait()
	for _, d := range tp.Devices() {
		if reader.Speaker(d.ID).Dirty() {
			t.Fatalf("reading %s's FIB touched its speaker", d.ID)
		}
	}
	if after, err := snap.EncodeCanonical(); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("building one fork's speakers while a sibling read its FIBs changed the state (err %v)", err)
	}
}

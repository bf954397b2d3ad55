package snapshot

// A restored network adopts the snapshot's Adj-RIB-In and Adj-RIB-Out
// columns by reference and copies one on its first write to it (see the
// Snapshot concurrency contract). These tests pin what that must never
// cost: the snapshot's bytes, a sibling fork's behaviour, or the bound on
// what a restore allocates.

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// divergences are the scenarios sibling forks run, one each: between them
// they reach all four in-place column writers (candidate set and drop, the
// advertise loop's write and upgrade, peer removal, withdrawal).
var divergences = []struct {
	name string
	run  func(n *fabric.Network) error
}{
	{"drain", func(n *fabric.Network) error {
		n.SetDrained(topo.SSWID(1, 2), true)
		n.Converge()
		n.SetDrained(topo.SSWID(1, 2), false)
		n.Converge()
		return nil
	}},
	{"rpa-rollout", func(n *fabric.Network) error {
		cfg := &core.Config{
			Version: 1,
			PathSelection: []core.PathSelectionStatement{{
				Name:                     "protect-" + backboneCommunity,
				Destination:              core.Destination{Community: backboneCommunity},
				PathSets:                 []core.PathSet{},
				BgpNativeMinNextHop:      core.MinNextHop{Percent: 75},
				KeepFibWarmIfMnhViolated: true,
			}},
		}
		for _, d := range n.Topo.ByLayer(topo.LayerSSW) {
			if err := n.DeployRPA(d.ID, cfg); err != nil {
				return err
			}
		}
		n.Converge()
		return nil
	}},
	{"peer-removal", func(n *fabric.Network) error {
		n.SetDeviceUp(topo.FADUID(0, 1), false)
		n.Converge()
		return nil
	}},
	{"session-flap", func(n *fabric.Network) error {
		n.SetLinkUp(topo.FSWID(2, 1), topo.SSWID(1, 0), false)
		n.Converge()
		n.SetLinkUp(topo.FSWID(2, 1), topo.SSWID(1, 0), true)
		n.Converge()
		return nil
	}},
	{"withdraw", func(n *fabric.Network) error {
		n.WithdrawAt(topo.EBID(0), defaultRoute)
		n.WithdrawAt(topo.RSWID(3, 2), netip.MustParsePrefix("10.3.2.0/24"))
		n.Converge()
		return nil
	}},
}

// divergeOn restores snap, runs one divergence on the fork, and returns the
// fork's tap stream and final encoded state.
func divergeOn(snap *Snapshot, run func(*fabric.Network) error) (lines []string, final []byte, err error) {
	n, err := snap.Restore()
	if err != nil {
		return nil, nil, err
	}
	recordTap(n, &lines)
	if err := run(n); err != nil {
		return nil, nil, err
	}
	end, err := Capture(n)
	if err != nil {
		return nil, nil, err
	}
	final, err = end.Encode()
	return lines, final, err
}

// TestSharedForksLeaveSnapshotUntouched runs ten seeds on a 36-device
// fabric (every device the divergences name exists in it) and, unless
// -short, one on the 116-device benchmark base.
func TestSharedForksLeaveSnapshotUntouched(t *testing.T) {
	type fabricCase struct {
		params topo.FabricParams
		seed   int64
	}
	var cases []fabricCase
	for seed := int64(1); seed <= 10; seed++ {
		cases = append(cases, fabricCase{topo.FabricParams{
			Pods: 4, RSWsPerPod: 3, FSWsPerPod: 2, Planes: 2,
			SSWsPerPlane: 3, Grids: 2, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2,
		}, seed})
	}
	if !testing.Short() {
		cases = append(cases, fabricCase{mediumFabric, 42})
	}
	for _, fc := range cases {
		seed := fc.seed
		base := buildFabric(fc.params, seed)
		quiescent, err := Capture(base)
		if err != nil {
			t.Fatal(err)
		}
		base.SetDrained(topo.SSWID(0, 1), true)
		base.WithdrawAt(topo.EBID(1), defaultRoute)
		base.Step(150)
		if base.PendingEvents() == 0 {
			t.Fatal("test wants a mid-convergence capture with in-flight deliveries")
		}
		mid, err := Capture(base)
		if err != nil {
			t.Fatal(err)
		}

		for kind, snap := range map[string]*Snapshot{"quiescent": quiescent, "mid-convergence": mid} {
			label := fmt.Sprintf("%d pods seed %d %s", fc.params.Pods, seed, kind)
			before, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}

			// Sibling forks of the one shared snapshot, diverging at once.
			type outcome struct {
				lines []string
				final []byte
				err   error
			}
			shared := make([]outcome, len(divergences))
			var wg sync.WaitGroup
			for i, d := range divergences {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := &shared[i]
					o.lines, o.final, o.err = divergeOn(snap, d.run)
				}()
			}
			wg.Wait()

			after, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("%s: the snapshot's encoding changed while its forks diverged", label)
			}

			// The referee: the same scenario on a restore nobody shares.
			for i, d := range divergences {
				if shared[i].err != nil {
					t.Fatalf("%s %s: %v", label, d.name, shared[i].err)
				}
				private, err := Decode(before)
				if err != nil {
					t.Fatal(err)
				}
				lines, final, err := divergeOn(private, d.run)
				if err != nil {
					t.Fatalf("%s %s (private): %v", label, d.name, err)
				}
				if len(lines) == 0 || bytes.Equal(final, before) {
					t.Fatalf("%s %s: the scenario did not diverge the fork", label, d.name)
				}
				if got := shared[i].lines; len(got) != len(lines) {
					t.Fatalf("%s %s: tap stream has %d events on the shared fork, %d on the private one", label, d.name, len(got), len(lines))
				}
				for j := range lines {
					if shared[i].lines[j] != lines[j] {
						t.Fatalf("%s %s: tap streams diverge at event %d:\n  shared:  %s\n  private: %s", label, d.name, j, shared[i].lines[j], lines[j])
					}
				}
				if !bytes.Equal(shared[i].final, final) {
					t.Fatalf("%s %s: the shared fork's final state differs from the private one's", label, d.name)
				}
			}
		}
	}
}

// TestRestoreAllocs bounds what one restore of the 116-device base
// allocates. What is left is per-device scaffolding (FIB tables, sessions,
// speakers, the topology clone) plus one prefixState slab per speaker; the
// columns — most of the state — are adopted, not rebuilt.
func TestRestoreAllocs(t *testing.T) {
	snap, err := Capture(buildMediumFabric(42))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := snap.Restore(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) / 1e6 // AllocsPerRun warms up with one extra call
	t.Logf("restore: %.0f allocations, %.2f MB", allocs, mb)
	if allocs > 8000 {
		t.Errorf("restore allocates %.0f times, ceiling 8000", allocs)
	}
	if mb > 6 {
		t.Errorf("restore allocates %.2f MB, ceiling 6", mb)
	}
}

// TestDecodeRejectsMalformedAdjIn: the wire carries the Adj-RIB-In per
// session and the decoder files it per prefix, which only works for the
// shape every encoder has written — one record per peer, in peer order,
// every route under a prefix that has a record. Anything else is rejected
// at Decode. The test corrupts a session ID and a prefix, occurrence by
// occurrence; whatever still decodes must round-trip.
func TestDecodeRejectsMalformedAdjIn(t *testing.T) {
	n := buildPodScenario(3)
	n.Converge()
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lenPrefixed := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	for _, c := range []struct{ needle, to, wantErr string }{
		{string(n.Speaker(topo.FSWID(0, 0)).Peers()[0]), "", "Adj-RIB-In record"},
		{"10.128.1.0/24", "10.128.1.0/25", "has no prefix record"},
	} {
		needle := lenPrefixed(c.needle)
		seen := false
		for off := 0; ; {
			i := bytes.Index(valid[off:], needle)
			if i < 0 {
				break
			}
			off += i + len(needle)
			bad := bytes.Clone(valid)
			if c.to != "" {
				copy(bad[off-len(c.to):], c.to)
			} else {
				bad[off-1] ^= 1
			}
			dec, err := Decode(bad)
			if err != nil {
				seen = seen || strings.Contains(err.Error(), c.wantErr)
				continue
			}
			enc, err := dec.Encode()
			if err != nil {
				t.Fatalf("corrupting %q at %d: decoded, but does not encode: %v", c.needle, off, err)
			}
			again, err := Decode(enc)
			if err != nil {
				t.Fatalf("corrupting %q at %d: re-encoding does not decode: %v", c.needle, off, err)
			}
			if enc2, _ := again.Encode(); !bytes.Equal(enc, enc2) {
				t.Fatalf("corrupting %q at %d: encoding not stable across a round trip", c.needle, off)
			}
		}
		if !seen {
			t.Errorf("no corruption of %q was rejected with %q", c.needle, c.wantErr)
		}
	}
}

// TestEncodeRejectsColumnOutOfPeerOrder: a hand-built state whose
// Adj-RIB-In column is not a subsequence of the peer list has no wire form;
// Encode reports it rather than writing something else.
func TestEncodeRejectsColumnOutOfPeerOrder(t *testing.T) {
	snap, err := Capture(buildRich(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	st := *snap.state
	st.Nodes = slices.Clone(st.Nodes)
	for i := range st.Nodes {
		sp := &st.Nodes[i].Speaker
		for j := range sp.Prefixes {
			if cands := sp.Prefixes[j].Cands; len(cands) >= 2 {
				sp.Prefixes = slices.Clone(sp.Prefixes)
				sp.Prefixes[j].Cands = []bgp.Candidate{cands[1], cands[0]}
				_, err := (&Snapshot{state: &st}).Encode()
				if err == nil || !strings.Contains(err.Error(), "not in peer order") {
					t.Fatalf("Encode of a reversed column: %v", err)
				}
				if _, err := snap.Encode(); err != nil {
					t.Fatalf("the captured snapshot no longer encodes: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("fixture has no two-candidate column")
}

// TestEncodeWithFingerprint: the pair is Encode and Fingerprint, with and
// without metadata.
func TestEncodeWithFingerprint(t *testing.T) {
	snap, err := Capture(buildRich(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range []map[string]string{nil, {"k": "v"}} {
		snap.Meta = meta
		enc, fp, err := snap.EncodeWithFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, _ := snap.Encode()
		wantFP, _ := snap.Fingerprint()
		if !bytes.Equal(enc, wantEnc) || fp != wantFP {
			t.Fatalf("meta %v: EncodeWithFingerprint differs from Encode/Fingerprint", meta)
		}
	}
}

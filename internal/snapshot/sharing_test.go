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
	{"rpa-rollout", func(n *fabric.Network) error { return rolloutProtect(n, 1) }},
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

// rolloutProtect deploys one protective config, the same *core.Config, to
// every SSW and converges.
func rolloutProtect(n *fabric.Network, version int64) error {
	cfg := &core.Config{
		Version: version,
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
}

// divergeOn restores snap, runs one divergence on the fork, and returns the
// fork with its tap stream and final encoded state.
func divergeOn(snap *Snapshot, run func(*fabric.Network) error) (n *fabric.Network, lines []string, final []byte, err error) {
	if n, err = snap.Restore(); err != nil {
		return nil, nil, nil, err
	}
	recordTap(n, &lines)
	if err := run(n); err != nil {
		return nil, nil, nil, err
	}
	end, err := Capture(n)
	if err != nil {
		return nil, nil, nil, err
	}
	final, err = end.Encode()
	return n, lines, final, err
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
		// An RPA-carrying base: every SSW runs one program, which the forks
		// share with the snapshot and each other.
		carrier, err := quiescent.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if err := rolloutProtect(carrier, 2); err != nil {
			t.Fatal(err)
		}
		carrying, err := Capture(carrier)
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

		for kind, snap := range map[string]*Snapshot{"quiescent": quiescent, "mid-convergence": mid, "rpa-carrying": carrying} {
			label := fmt.Sprintf("%d pods seed %d %s", fc.params.Pods, seed, kind)
			before, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}

			// Sibling forks of the one shared snapshot, diverging at once.
			type outcome struct {
				fork  *fabric.Network
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
					o.fork, o.lines, o.final, o.err = divergeOn(snap, d.run)
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
				_, lines, final, err := divergeOn(private, d.run)
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
				// A fork runs the snapshot's own programs until it deploys.
				carried := 0
				for j := range snap.state.Nodes {
					node := &snap.state.Nodes[j]
					if node.Speaker.RPA == nil {
						continue
					}
					carried++
					got := shared[i].fork.Speaker(topo.DeviceID(node.Device)).Program()
					if redeployed := d.name == "rpa-rollout"; (got == node.Speaker.RPA) == redeployed {
						t.Fatalf("%s %s: %s shares the snapshot's program: %v, redeployed: %v", label, d.name, node.Device, !redeployed, redeployed)
					}
				}
				if want := len(base.Topo.ByLayer(topo.LayerSSW)); snap == carrying && carried != want {
					t.Fatalf("%s: %d speakers carry a program, want the %d SSWs", label, carried, want)
				}
			}
		}
	}
}

// TestDecodeInternsPrograms: Decode compiles each distinct RPA rendering
// once, however many speakers carry it, and hands the bytes back unchanged.
func TestDecodeInternsPrograms(t *testing.T) {
	n := buildMediumFabric(7)
	if err := rolloutProtect(n, 3); err != nil { // one *core.Config on every SSW
		t.Fatal(err)
	}
	other := &core.Config{Version: 4, RouteFilter: []core.RouteFilterStatement{{Name: "all", PeerSignature: "^rsw\\."}}}
	if err := n.DeployRPA(topo.FSWID(0, 0), other); err != nil {
		t.Fatal(err)
	}
	n.Converge()
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[*core.Program][]string{}
	for i := range dec.state.Nodes {
		if p := dec.state.Nodes[i].Speaker.RPA; p != nil {
			programs[p] = append(programs[p], dec.state.Nodes[i].Device)
		}
	}
	ssws := len(n.Topo.ByLayer(topo.LayerSSW))
	if ssws < 4 || len(programs) != 2 {
		t.Fatalf("decoded %d distinct programs for %d SSWs and one FSW, want 2: %v", len(programs), ssws, programs)
	}
	for p, devs := range programs {
		if want := map[int64]int{3: ssws, 4: 1}[p.Config().Version]; len(devs) != want {
			t.Errorf("version %d program is shared by %d speakers, want %d", p.Config().Version, len(devs), want)
		}
	}
	if again, err := dec.Encode(); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("Encode(Decode(x)) != x (err %v)", err)
	}

	// A rendering that does not compile is refused by Decode, not by a later
	// restore.
	bad := bytes.Replace(enc, []byte(`^rsw\\.`), []byte(`^rsw(((`), 1)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "RPA config") {
		t.Fatalf("Decode of a snapshot whose RPA regex does not compile: %v", err)
	}
}

// TestRestoreAllocs bounds what one restore of the 116-device base
// allocates, bare and with one RPA on every SSW. What is left is per-device
// scaffolding (FIB tables, sessions, speakers, the topology clone) plus one
// prefixState slab per speaker; the columns — most of the state — and the
// compiled programs are adopted, not rebuilt: a program-carrying speaker costs
// an evaluator and its cache (4 allocations measured; 19 on the tree that
// unmarshalled and compiled the config per restored speaker).
func TestRestoreAllocs(t *testing.T) {
	bare := 0.0
	for _, withRPA := range []bool{false, true} {
		n := buildMediumFabric(42)
		if withRPA {
			if err := rolloutProtect(n, 1); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := Capture(n)
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
		t.Logf("restore (RPA %v): %.0f allocations, %.2f MB", withRPA, allocs, mb)
		if allocs > 8000 {
			t.Errorf("restore (RPA %v) allocates %.0f times, ceiling 8000", withRPA, allocs)
		}
		if mb > 6 {
			t.Errorf("restore (RPA %v) allocates %.2f MB, ceiling 6", withRPA, mb)
		}
		if !withRPA {
			bare = allocs
		} else if ssws := float64(len(n.Topo.ByLayer(topo.LayerSSW))); allocs > bare+8*ssws {
			t.Errorf("restoring %.0f program-carrying speakers costs %.0f allocations more than restoring none, ceiling 8 each", ssws, allocs-bare)
		}
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

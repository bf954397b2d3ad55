package snapshot

// A restored network adopts the snapshot's Adj-RIB-In and Adj-RIB-Out
// columns by reference and copies one on its first write to it (see the
// Snapshot concurrency contract). These tests pin what that must never
// cost: the snapshot's bytes, a sibling fork's behaviour, or the bound on
// what a restore allocates.

import (
	"bytes"
	"errors"
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
	"centralium/internal/fib"
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

// TestForksShareTopology: a lineage has one topology. A restore adopts its
// state's, Snapshot.Topology returns it, and a capture of a fork hands it on,
// from a captured state and a decoded one alike. Eight forks of one decoded
// state, restored, diverged and captured at once (under -race), all stand on
// it, and each capture is still the full capture's bytes.
func TestForksShareTopology(t *testing.T) {
	n := buildFabric(corpusFabric, 5)
	captured, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := captured.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRendered(enc)
	if err != nil {
		t.Fatal(err)
	}
	if captured.state.Topo != n.Topo {
		t.Fatal("a capture does not carry its network's topology")
	}
	for _, c := range []struct {
		from string
		snap *Snapshot
	}{{"captured", captured}, {"decoded", decoded}} {
		want := c.snap.state.Topo
		if tp, err := c.snap.Topology(); err != nil || tp != want {
			t.Fatalf("%s: Topology() is not the state's own (err %v)", c.from, err)
		}
		fork, err := c.snap.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if fork.Topo != want {
			t.Fatalf("%s: the restore does not stand on the state's topology", c.from)
		}
		if err := divergences[0].run(fork); err != nil {
			t.Fatal(err)
		}
		child, err := CaptureFrom(c.snap, fork)
		if err != nil {
			t.Fatal(err)
		}
		if child.state.Topo != want {
			t.Fatalf("%s: the capture of a fork does not carry its lineage's topology", c.from)
		}
	}

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork, err := decoded.Restore()
			if err == nil {
				err = divergences[i%len(divergences)].run(fork)
			}
			if err != nil {
				errs[i] = err
				return
			}
			child, err := CaptureFrom(decoded, fork)
			if err != nil {
				errs[i] = err
				return
			}
			if fork.Topo != decoded.state.Topo || child.state.Topo != decoded.state.Topo {
				errs[i] = fmt.Errorf("the fork or its capture does not share the decoded topology")
				return
			}
			errs[i] = diffFromFull(t, child, fork)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fork %d (%s): %v", i, divergences[i%len(divergences)].name, err)
		}
	}
}

// TestRestoreAllocs bounds what one restore of the 116-device base
// allocates, bare and with one RPA on every SSW, restored from the captured
// state and from its decoding. A restore builds only what a fork touches:
// what is left is per-device scaffolding — a speaker and a FIB table that
// keep their checkpoint records — plus the node and session slabs; the
// topology is the state's own, shared. The speakers' maps, columns and RPA
// evaluators are built on first use, so a program-carrying speaker costs
// nothing more to restore. Measured: 241 allocations and 0.13 MB, bare and
// with the RPA alike, captured and decoded alike (483 and 0.18 MB when each
// restore cloned the topology, 6,534 and 2.73 MB when every speaker and FIB
// was built at restore); the allocation ceiling leaves about 30% headroom.
//
// A restore reads none of a record's columns or FIB entries, because the
// state carries the verdict of the check that makes that safe (ExportState's
// by construction, Decode's through NetState.Check), and the topology's
// frame. The check itself, which a decoder pays once per state and a restore
// of a hand-built state pays every time, is bounded per device: it allocates
// one session list per speaker and the frame's handful of slices.
//
// Restoring a base and capturing it again with nothing run in between builds
// no speaker at all: its cost per device, over the 36- and 116-device
// fabrics, stays at the two scaffolding allocations, whatever the size.
func TestRestoreAllocs(t *testing.T) {
	bare := 0.0
	for _, withRPA := range []bool{false, true} {
		n := buildMediumFabric(42)
		if withRPA {
			if err := rolloutProtect(n, 1); err != nil {
				t.Fatal(err)
			}
		}
		captured, err := Capture(n)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := captured.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			from string
			snap *Snapshot
		}{{"captured", captured}, {"decoded", decoded}} {
			const runs = 5
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := c.snap.Restore(); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&m1)
			mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) / 1e6 // AllocsPerRun warms up with one extra call
			t.Logf("restore of the %s state (RPA %v): %.0f allocations, %.2f MB", c.from, withRPA, allocs, mb)
			if allocs > 320 {
				t.Errorf("restore of the %s state (RPA %v) allocates %.0f times, ceiling 320", c.from, withRPA, allocs)
			}
			if mb > 0.25 {
				t.Errorf("restore of the %s state (RPA %v) allocates %.2f MB, ceiling 0.25", c.from, withRPA, mb)
			}
			if !withRPA {
				bare = max(bare, allocs)
			} else if ssws := float64(len(n.Topo.ByLayer(topo.LayerSSW))); allocs > bare+8*ssws {
				t.Errorf("restoring %.0f program-carrying speakers costs %.0f allocations more than restoring none, ceiling 8 each", ssws, allocs-bare)
			}
		}

		devices := float64(len(decoded.state.Nodes))
		check := testing.AllocsPerRun(5, func() {
			if err := decoded.state.Check(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("checking the decoded state (RPA %v): %.0f allocations, %.2f per device", withRPA, check, check/devices)
		if check > 1.25*devices+16 {
			t.Errorf("checking the decoded state (RPA %v) allocates %.0f times, ceiling 1.25 per device and 16 besides", withRPA, check)
		}
	}

	untouched := func(params topo.FabricParams) (allocs, devices float64) {
		plain, err := Capture(buildFabric(params, 42))
		if err != nil {
			t.Fatal(err)
		}
		parent, err := plain.Rendered()
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() {
			n, err := parent.Restore()
			if err != nil {
				t.Fatal(err)
			}
			child, err := CaptureFrom(parent, n)
			if err != nil {
				t.Fatal(err)
			}
			if repeated(parent, child) != len(parent.state.Nodes) {
				t.Fatal("a fork that ran nothing re-exported a speaker")
			}
		})
		return allocs, float64(len(plain.state.Nodes))
	}
	small, nSmall := untouched(corpusFabric)
	medium, nMedium := untouched(mediumFabric)
	perDevice := (medium - small) / (nMedium - nSmall)
	t.Logf("restore and capture of an untouched fork: %.0f allocations at %.0f devices, %.0f at %.0f: %.2f per device", small, nSmall, medium, nMedium, perDevice)
	if perDevice > 2.5 || small-2*nSmall > 64 {
		t.Errorf("restoring and capturing an untouched fork costs %.2f allocations per device and %.0f besides, ceilings 2.5 and 64: a speaker or a FIB built its maps, or the topology was copied", perDevice, small-2*nSmall)
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

// TestDecodeRejectsRepeatedRecords: a state that lists one device twice, or
// one prefix twice in a FIB, used to restore silently wrong — the last node
// record won, and the repeated prefix's group was counted twice, so it
// outlived the prefix. Both are refused by name at Decode and at
// fabric.NewFromState. As in TestDecodeRejectsMalformedAdjIn, the encoding is
// corrupted occurrence by occurrence, a name turned into its neighbour's;
// whatever still decodes must round-trip.
func TestDecodeRejectsRepeatedRecords(t *testing.T) {
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
	for _, c := range []struct {
		from, to string
		want     error
	}{
		{string(topo.FSWID(0, 1)), string(topo.FSWID(0, 0)), fabric.ErrDuplicateDevice},
		{"10.128.2.0/24", "10.128.1.0/24", fib.ErrDuplicatePrefix},
	} {
		needle := lenPrefixed(c.from)
		seen := false
		for off := 0; ; {
			i := bytes.Index(valid[off:], needle)
			if i < 0 {
				break
			}
			off += i + len(needle)
			bad := bytes.Clone(valid)
			copy(bad[off-len(c.to):], c.to)
			dec, err := Decode(bad)
			if err != nil {
				seen = seen || errors.Is(err, c.want)
				continue
			}
			enc, err := dec.Encode()
			if err != nil {
				t.Fatalf("renaming %q at %d: decoded, but does not encode: %v", c.from, off, err)
			}
			if again, err := Decode(enc); err != nil {
				t.Fatalf("renaming %q at %d: re-encoding does not decode: %v", c.from, off, err)
			} else if enc2, _ := again.Encode(); !bytes.Equal(enc, enc2) {
				t.Fatalf("renaming %q at %d: encoding not stable across a round trip", c.from, off)
			}
		}
		if !seen {
			t.Errorf("no renaming of %q to %q was rejected with %v", c.from, c.to, c.want)
		}
	}

	// The same two states, built in memory: NewFromState refuses them too.
	dupDevice := *snap.state
	dupDevice.Nodes = slices.Clone(dupDevice.Nodes)
	dupDevice.Nodes[1] = dupDevice.Nodes[0]
	if _, err := fabric.NewFromState(&dupDevice, fabric.RestoreOptions{}); !errors.Is(err, fabric.ErrDuplicateDevice) {
		t.Errorf("restoring a state that lists %s twice: %v, want ErrDuplicateDevice", dupDevice.Nodes[0].Device, err)
	}
	dupPrefix := *snap.state
	dupPrefix.Nodes = slices.Clone(dupPrefix.Nodes)
	tbl := &dupPrefix.Nodes[0].Speaker.FIB
	if len(tbl.Entries) < 2 {
		t.Fatalf("%s's FIB has %d entries, the test wants two", dupPrefix.Nodes[0].Device, len(tbl.Entries))
	}
	// A table built by hand: a copy of the captured one would carry
	// ExportState's verdict that it is canonical.
	entries := slices.Clone(tbl.Entries)
	entries[1].Prefix = entries[0].Prefix
	*tbl = fib.TableState{Limit: tbl.Limit, Entries: entries}
	if _, err := fabric.NewFromState(&dupPrefix, fabric.RestoreOptions{}); !errors.Is(err, fib.ErrDuplicatePrefix) {
		t.Errorf("restoring a FIB that lists %v twice: %v, want ErrDuplicatePrefix", tbl.Entries[0].Prefix, err)
	}
	if err := dupPrefix.Check(); !errors.Is(err, fib.ErrDuplicatePrefix) {
		t.Errorf("checking a FIB that lists %v twice: %v, want ErrDuplicatePrefix", tbl.Entries[0].Prefix, err)
	}
	if err := dupDevice.Check(); !errors.Is(err, fabric.ErrDuplicateDevice) {
		t.Errorf("checking a state that lists %s twice: %v, want ErrDuplicateDevice", dupDevice.Nodes[0].Device, err)
	}
	if _, err := fabric.NewFromState(snap.state, fabric.RestoreOptions{}); err != nil {
		t.Fatalf("the untampered state: %v", err)
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

package snapshot

// CaptureFrom exports and encodes only what a fork's run touched and copies
// the rest out of its parent's rendering. These tests hold it to the one
// thing that makes that safe to use everywhere: the bytes are the bytes of a
// full export and a full encode of the same network, always.

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// captureFull is the oracle: every node exported afresh, nothing remembered
// (fabric.Network.ExportFull); its encodings render everything.
func captureFull(tb testing.TB, n *fabric.Network) *Snapshot {
	tb.Helper()
	st, err := n.ExportFull()
	if err != nil {
		tb.Fatal(err)
	}
	return &Snapshot{Meta: map[string]string{}, state: st}
}

// sameAsFull fails unless got's three renderings are the oracle's for n.
func sameAsFull(tb testing.TB, label string, got *Snapshot, n *fabric.Network) {
	tb.Helper()
	if err := diffFromFull(tb, got, n); err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
}

func diffFromFull(tb testing.TB, got *Snapshot, n *fabric.Network) error {
	tb.Helper()
	want := captureFull(tb, n)
	for _, r := range []struct {
		what string
		enc  func(*Snapshot) ([]byte, error)
	}{
		{"Encode", (*Snapshot).Encode},
		{"EncodeCanonical", (*Snapshot).EncodeCanonical},
		{"Fingerprint", func(s *Snapshot) ([]byte, error) { fp, err := s.Fingerprint(); return []byte(fp), err }},
	} {
		g, err := r.enc(got)
		if err != nil {
			return err
		}
		w, err := r.enc(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("%s of the dirty capture differs from the full capture's (%d vs %d bytes)", r.what, len(g), len(w))
		}
	}
	if got.enc == nil || got.enc.fp != fingerprintOf(got.enc.canon) {
		return fmt.Errorf("the capture is not rendered, or its fingerprint is not its bytes'")
	}
	return nil
}

// repeated counts the node records of child that are parent's own: same
// peers array, not an equal copy.
func repeated(parent, child *Snapshot) int {
	n := 0
	for i := range child.state.Nodes {
		c := child.state.Nodes[i].Speaker.Peers
		for j := range parent.state.Nodes {
			if p := parent.state.Nodes[j].Speaker.Peers; len(c) > 0 && len(p) > 0 && &c[0] == &p[0] {
				n++
			}
		}
	}
	return n
}

// isolate takes down every session of a device and converges.
func isolate(n *fabric.Network, dev topo.DeviceID) {
	for _, peer := range n.Topo.Neighbors(dev) {
		n.SetLinkUp(dev, peer, false)
	}
	n.Converge()
}

// loneMutators each call one mutating entry point and run no event, so the
// speaker written is dirty through that entry point's own Touch and nothing
// else: remove one Touch and the capture right after repeats a stale record.
// prepare, when set, runs first and is captured on its own, so that run
// starts from clean speakers.
var loneMutators = []struct {
	name    string
	prepare func(n *fabric.Network)
	run     func(n *fabric.Network)
}{
	{name: "SetDrained", run: func(n *fabric.Network) { n.SetDrained(topo.SSWID(1, 2), true) }},
	{name: "DeployRPA", run: func(n *fabric.Network) {
		_ = n.DeployRPA(topo.FSWID(1, 0), &core.Config{Version: 9})
	}},
	{name: "SetPrependAll", run: func(n *fabric.Network) { n.SetPrependAll(topo.FADUID(1, 0), 2) }},
	{name: "SetPrependToward", run: func(n *fabric.Network) { n.SetPrependToward(topo.FSWID(0, 0), topo.SSWID(0, 0), 1) }},
	{name: "OriginateAt", run: func(n *fabric.Network) {
		n.OriginateAt(topo.RSWID(0, 0), netip.MustParsePrefix("198.51.100.0/24"), nil, 0)
	}},
	{name: "OriginateAggregateAt", run: func(n *fabric.Network) {
		n.OriginateAggregateAt(topo.FSWID(3, 1), netip.MustParsePrefix("10.3.0.0/16"), nil, 0)
	}},
	{name: "WithdrawAt", run: func(n *fabric.Network) { n.WithdrawAt(topo.EBID(1), defaultRoute) }},
	{name: "SetLinkUp down", run: func(n *fabric.Network) { n.SetLinkUp(topo.FSWID(2, 1), topo.SSWID(1, 0), false) }},
	{
		name:    "SetLinkUp up",
		prepare: func(n *fabric.Network) { n.SetLinkUp(topo.FSWID(2, 1), topo.SSWID(1, 0), false); n.Converge() },
		run:     func(n *fabric.Network) { n.SetLinkUp(topo.FSWID(2, 1), topo.SSWID(1, 0), true) },
	},
	{name: "SetDeviceUp", run: func(n *fabric.Network) { n.SetDeviceUp(topo.FAUUID(0, 1), false) }},
	{
		// No session left to tear down: only the node's own up slot moves.
		name:    "SetDeviceUp isolated",
		prepare: func(n *fabric.Network) { isolate(n, topo.RSWID(2, 2)) },
		run:     func(n *fabric.Network) { n.SetDeviceUp(topo.RSWID(2, 2), false) },
	},
	{
		// No session left to tear down: the restart only rewrites the FIB,
		// through FIB().
		name:    "RestartDevice warm isolated",
		prepare: func(n *fabric.Network) { isolate(n, topo.RSWID(2, 2)) },
		run: func(n *fabric.Network) {
			n.RestartDevice(topo.RSWID(2, 2), time.Millisecond, true)
			n.Converge()
		},
	},
	{name: "one delivery", run: func(n *fabric.Network) {
		n.WithdrawAt(topo.RSWID(1, 1), netip.MustParsePrefix("10.1.1.0/24"))
		n.Step(1) // one HandleUpdate, at a speaker no entry point above was called on
	}},
}

// corpusFabric is the 36-device fabric of TestSharedForksLeaveSnapshotUntouched.
var corpusFabric = topo.FabricParams{
	Pods: 4, RSWsPerPod: 3, FSWsPerPod: 2, Planes: 2,
	SSWsPerPlane: 3, Grids: 2, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2,
}

// corpusSnapshots are the three bases of the sharing corpus for one seed:
// quiescent, RPA-carrying, and mid-convergence with deliveries in flight.
func corpusSnapshots(t *testing.T, seed int64) map[string]*Snapshot {
	t.Helper()
	base := buildFabric(corpusFabric, seed)
	quiescent, err := Capture(base)
	if err != nil {
		t.Fatal(err)
	}
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
	return map[string]*Snapshot{"quiescent": quiescent, "mid-convergence": mid, "rpa-carrying": carrying}
}

// TestCaptureFromMatchesFullCapture is the oracle over the sharing corpus:
// ten seeds, three kinds of base, and on a fork of each the five divergences
// of TestSharedForksLeaveSnapshotUntouched and every mutating entry point on
// its own — captured against the parent, captured again after more events
// (against its own last capture), and once against a parent that is not its
// base. Every capture must be, byte for
// byte, the full export and encode of the same network.
func TestCaptureFromMatchesFullCapture(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for kind, plain := range corpusSnapshots(t, seed) {
			parent, err := plain.Rendered()
			if err != nil {
				t.Fatal(err)
			}
			if plain.enc != nil || parent.state != plain.state {
				t.Fatal("Rendered must be a view of the same state and leave its receiver holding no bytes")
			}
			label := func(what string) string { return fmt.Sprintf("seed %d %s %s", seed, kind, what) }
			fork := func() *fabric.Network {
				n, err := parent.Restore()
				if err != nil {
					t.Fatal(err)
				}
				return n
			}

			// An untouched fork is its parent, every record repeated.
			n := fork()
			same, err := CaptureFrom(parent, n)
			if err != nil {
				t.Fatal(err)
			}
			sameAsFull(t, label("untouched"), same, n)
			if got, want := repeated(parent, same), len(parent.state.Nodes); got != want || same.state.Topo != parent.state.Topo {
				t.Fatalf("%s: %d of %d node records repeated, topology shared: %v", label("untouched"), got, want, same.state.Topo == parent.state.Topo)
			}
			if !bytes.Equal(same.enc.canon, parent.enc.canon) {
				t.Fatalf("%s: an untouched fork encodes differently from its parent", label("untouched"))
			}

			for i, d := range divergences {
				n := fork()
				if err := d.run(n); err != nil {
					t.Fatal(err)
				}
				child, err := CaptureFrom(parent, n)
				if err != nil {
					t.Fatal(err)
				}
				sameAsFull(t, label(d.name), child, n)
				if bytes.Equal(child.enc.canon, parent.enc.canon) {
					t.Fatalf("%s: the scenario did not diverge the fork", label(d.name))
				}
				// Re-basing: the fork runs on and is captured against its own
				// last capture.
				next := divergences[(i+1)%len(divergences)]
				if err := next.run(n); err != nil {
					t.Fatal(err)
				}
				again, err := CaptureFrom(child, n)
				if err != nil {
					t.Fatal(err)
				}
				sameAsFull(t, label(d.name+" then "+next.name), again, n)
				// A parent that is not the network's base is no parent.
				if err := divergences[(i+2)%len(divergences)].run(n); err != nil {
					t.Fatal(err)
				}
				stranger, err := CaptureFrom(parent, n)
				if err != nil {
					t.Fatal(err)
				}
				sameAsFull(t, label(d.name+" against a stranger"), stranger, n)
			}

			for _, m := range loneMutators {
				n, from := fork(), parent
				if m.prepare != nil {
					m.prepare(n)
					if from, err = CaptureFrom(parent, n); err != nil {
						t.Fatal(err)
					}
					sameAsFull(t, label(m.name+" (prepared)"), from, n)
				}
				m.run(n)
				child, err := CaptureFrom(from, n)
				if err != nil {
					t.Fatal(err)
				}
				sameAsFull(t, label(m.name), child, n)
				if kind == "quiescent" && repeated(from, child) == 0 {
					t.Fatalf("%s: no node record repeated — the test has stopped testing sharing", label(m.name))
				}
			}
		}
	}
}

// TestCaptureFromConcurrentSiblings: four forks of one rendered parent
// diverge and are captured against it at once (run under -race): the parent's
// rendering is only ever read.
func TestCaptureFromConcurrentSiblings(t *testing.T) {
	for _, plain := range corpusSnapshots(t, 3) {
		parent, err := plain.Rendered()
		if err != nil {
			t.Fatal(err)
		}
		before := bytes.Clone(parent.enc.canon)
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := parent.Restore()
				if err == nil {
					err = divergences[i].run(n)
				}
				if err != nil {
					errs[i] = err
					return
				}
				child, err := CaptureFrom(parent, n)
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = diffFromFull(t, child, n)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("sibling %s: %v", divergences[i].name, err)
			}
		}
		if !bytes.Equal(before, parent.enc.canon) {
			t.Fatal("capturing its forks changed the parent's rendering")
		}
	}
}

// TestDecodeRenderedAdoptsCanonicalBytes: canonical bytes become the decoded
// snapshot's rendering as they are, and serve as a parent; anything else that
// decodes is rendered afresh.
func TestDecodeRenderedAdoptsCanonicalBytes(t *testing.T) {
	n := buildRich(t, 42)
	plain, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := plain.EncodeCanonical()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeRendered(canon)
	if err != nil {
		t.Fatal(err)
	}
	if &snap.enc.canon[0] != &canon[0] || snap.enc.fp != fingerprintOf(canon) {
		t.Fatal("canonical input must stand as the rendering, by reference")
	}
	fork, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	churn(fork)
	child, err := CaptureFrom(snap, fork)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull(t, "child of a decoded parent", child, fork)
	if repeated(snap, child) == 0 {
		t.Fatal("nothing repeated from the decoded parent")
	}

	plain.Meta["who"] = "operator"
	withMeta, err := plain.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err = DecodeRendered(withMeta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.enc.canon, canon) || snap.Meta["who"] != "operator" {
		t.Fatal("input with a metadata section must be rendered afresh, canonically, and keep its metadata")
	}
}

// TestSharedEncodingIsReadOnly: the bytes a rendered snapshot hands out are
// its rendering itself. Their capacity ends at their length, so growing them
// copies; and a child's rendering is its own buffer, so even writing into a
// re-sliced child encoding cannot reach the parent's bytes or a sibling's.
func TestSharedEncodingIsReadOnly(t *testing.T) {
	plain := corpusSnapshots(t, 5)["quiescent"]
	parent, err := plain.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	children := make([]*Snapshot, 2)
	for i := range children {
		n, err := parent.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if err := divergences[i].run(n); err != nil {
			t.Fatal(err)
		}
		if children[i], err = CaptureFrom(parent, n); err != nil {
			t.Fatal(err)
		}
	}
	intact := func(when string) {
		t.Helper()
		for name, s := range map[string]*Snapshot{"parent": parent, "sibling": children[1]} {
			enc, _ := s.EncodeCanonical()
			fp, _ := s.Fingerprint()
			if fingerprintOf(enc) != fp {
				t.Fatalf("%s: the %s's bytes no longer hash to its fingerprint", when, name)
			}
		}
	}
	for _, get := range []func(*Snapshot) ([]byte, error){(*Snapshot).Encode, (*Snapshot).EncodeCanonical} {
		enc, err := get(children[0])
		if err != nil {
			t.Fatal(err)
		}
		if cap(enc) != len(enc) {
			t.Fatalf("a handed-out encoding has %d bytes of capacity past its length", cap(enc)-len(enc))
		}
		grown := append(enc, 0xde, 0xad)
		grown[0] ^= 0xff
		intact("append")
		if fp, _ := children[0].Fingerprint(); fingerprintOf(enc) != fp {
			t.Fatal("appending to a handed-out encoding wrote into the snapshot's own bytes")
		}
	}
	// A re-slice has room to be written into: that ruins the child's own
	// bytes, which is why callers must not, and nothing else.
	enc, _ := children[0].EncodeCanonical()
	clear(append(enc[:len(enc)/2], make([]byte, len(enc)/2)...))
	intact("re-slice and overwrite")
}

// TestForkCaptureAllocs is the ceiling on what a capture costs. Capturing a
// fork nothing touched allocates the same handful of objects on the 36-device
// fabric and on the 116-device one — no topology clone or export, no speaker
// export, no session table — and a fork that deployed one RPA re-exports
// exactly the speakers something touched.
func TestForkCaptureAllocs(t *testing.T) {
	untouched := func(params topo.FabricParams) float64 {
		plain, err := Capture(buildFabric(params, 42))
		if err != nil {
			t.Fatal(err)
		}
		parent, err := plain.Rendered()
		if err != nil {
			t.Fatal(err)
		}
		n, err := parent.Restore()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			// Captured against its last capture each time: still untouched.
			if parent, err = CaptureFrom(parent, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, medium := untouched(corpusFabric), untouched(mediumFabric)
	t.Logf("capturing an untouched fork: %.0f allocations at 36 devices, %.0f at 116", small, medium)
	if medium != small || medium > 16 {
		t.Errorf("capturing an untouched fork allocates %.0f times at 36 devices and %.0f at 116, want the same count, at most 16", small, medium)
	}

	base := buildMediumFabric(42)
	plain, err := Capture(base)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := plain.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	n, err := parent.Restore()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &core.Config{Version: 1, PathSelection: []core.PathSelectionStatement{{
		Name:                "protect-" + backboneCommunity,
		Destination:         core.Destination{Community: backboneCommunity},
		PathSets:            []core.PathSet{},
		BgpNativeMinNextHop: core.MinNextHop{Percent: 75},
	}}}
	if err := n.DeployRPA(topo.SSWID(2, 1), cfg); err != nil {
		t.Fatal(err)
	}
	n.Converge()
	dirty := 0
	for _, d := range n.Topo.Devices() {
		// Reading a speaker's program — what planner.evalMigration does on
		// every device — is not a write.
		_ = n.Speaker(d.ID).Program().JSON()
		if n.Speaker(d.ID).Dirty() {
			dirty++
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	child, err := CaptureFrom(parent, n)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull(t, "one deployed RPA", child, n)
	total := len(parent.state.Nodes)
	t.Logf("one deployed RPA: %d of %d speakers dirty, capture allocates %d times", dirty, total, m1.Mallocs-m0.Mallocs)
	if got := total - repeated(parent, child); got != dirty || dirty == 0 || dirty > total/4 {
		t.Errorf("%d speakers re-exported, %d dirty of %d: want exactly the dirty ones, and a small share", got, dirty, total)
	}
}

// TestCaptureFromSkipsRebuiltRecord: a column that arrives out of session
// order is rebuilt sorted by the restore, so the restored speaker is not the
// record it came from and the record must not be repeated.
func TestCaptureFromSkipsRebuiltRecord(t *testing.T) {
	plain, err := Capture(buildFabric(corpusFabric, 7))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := plain.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tampered, err := Decode(enc) // a private state to scramble
	if err != nil {
		t.Fatal(err)
	}
	scrambled := ""
	for i := range tampered.state.Nodes {
		node := &tampered.state.Nodes[i]
		for j := range node.Speaker.Prefixes {
			if adv := node.Speaker.Prefixes[j].Advertised; len(adv) >= 2 && scrambled == "" {
				adv[0], adv[1] = adv[1], adv[0]
				scrambled = node.Device
			}
		}
	}
	if scrambled == "" {
		t.Fatal("fixture has no Adj-RIB-Out column of two entries")
	}
	// Decode checked the records as they were; the edited one is checked
	// again, as a decoder would check it.
	if err := tampered.state.Check(); err != nil {
		t.Fatal(err)
	}
	parent, err := tampered.Rendered()
	if err != nil {
		t.Fatal(err)
	}
	n, err := parent.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !n.Speaker(topo.DeviceID(scrambled)).Dirty() {
		t.Fatalf("%s restored from a column it had to rebuild, and reports clean", scrambled)
	}
	child, err := CaptureFrom(parent, n)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull(t, "fork of a scrambled state", child, n)
	if got, want := repeated(parent, child), len(parent.state.Nodes)-1; got != want {
		t.Fatalf("%d records repeated, want every one but %s's (%d)", got, scrambled, want)
	}
}

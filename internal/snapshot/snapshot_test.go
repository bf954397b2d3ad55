package snapshot

import (
	"bytes"
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

var defaultRoute = netip.MustParsePrefix("0.0.0.0/0")

const backboneCommunity = "backbone"

// buildRich constructs a mesh fabric exercising every serialized feature:
// originated prefixes with communities and bandwidth, a deployed RPA with
// MinNextHop + keep-warm (so the match cache and warm-FIB paths are live),
// prepends, a drained device, downed links, and session epoch churn.
func buildRich(tb testing.TB, seed int64) *fabric.Network {
	tb.Helper()
	mesh := topo.BuildMesh(topo.MeshParams{})
	n := fabric.New(mesh, fabric.Options{Seed: seed})
	for i := 0; i < 2; i++ {
		n.OriginateAt(topo.EBID(i), defaultRoute, []string{backboneCommunity}, 0)
	}
	for i, fsw := range mesh.ByLayer(topo.LayerFSW) {
		n.OriginateAt(fsw.ID, netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i)), []string{"rack"}, 100)
	}
	n.Converge()

	cfg := &core.Config{
		Version: 1,
		PathSelection: []core.PathSelectionStatement{{
			Name:                     "protect-" + backboneCommunity,
			Destination:              core.Destination{Community: backboneCommunity},
			PathSets:                 []core.PathSet{},
			BgpNativeMinNextHop:      core.MinNextHop{Percent: 75},
			KeepFibWarmIfMnhViolated: true,
			ExpectedNextHops:         2,
		}},
	}
	if err := n.DeployRPA(topo.SSWID(0, 0), cfg); err != nil {
		tb.Fatal(err)
	}
	n.SetPrependAll(topo.SSWID(0, 1), 2)
	n.SetDrained(topo.SSWID(1, 0), true)
	n.Converge()

	// MNH violation on ssw.pl0.0: drop one of its two FADU uplinks, leaving
	// 1 of 2 expected next hops for the default route (< 75%) — the RPA
	// keeps the FIB warm, exercising warm-entry serialization.
	n.SetLinkUp(topo.SSWID(0, 0), topo.FADUID(0, 0), false)
	// Bounce a session elsewhere to advance its epoch past zero.
	n.SetLinkUp(topo.SSWID(1, 1), topo.FADUID(1, 1), false)
	n.Converge()
	n.SetLinkUp(topo.SSWID(1, 1), topo.FADUID(1, 1), true)
	n.Converge()
	return n
}

// churn re-originates and withdraws a few prefixes so the queue fills with
// in-flight deliveries, then steps partway so a capture sees a non-empty
// queue mid-convergence.
func churn(n *fabric.Network) {
	n.WithdrawAt(topo.EBID(0), defaultRoute)
	n.OriginateAt(topo.EBID(0), defaultRoute, []string{backboneCommunity}, 0)
	n.OriginateAt(topo.EBID(1), netip.MustParsePrefix("192.0.2.0/24"), []string{backboneCommunity}, 40)
	n.Step(25)
}

// sameState is reflect.DeepEqual on two states, except that a speaker's
// program is compared by what it is on the wire, its JSON: a captured program
// holds the config it was deployed with, a decoded one a parse of the
// rendering, and an empty slice comes back from JSON as a nil one.
func sameState(a, b *fabric.NetState) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	ac, bc := *a, *b
	ac.Nodes, bc.Nodes = slices.Clone(a.Nodes), slices.Clone(b.Nodes)
	for i := range ac.Nodes {
		pa, pb := ac.Nodes[i].Speaker.RPA, bc.Nodes[i].Speaker.RPA
		if (pa == nil) != (pb == nil) || pa != nil && !bytes.Equal(pa.JSON(), pb.JSON()) {
			return false
		}
		ac.Nodes[i].Speaker.RPA, bc.Nodes[i].Speaker.RPA = nil, nil
	}
	return reflect.DeepEqual(&ac, &bc)
}

func TestRoundTripDeepEqual(t *testing.T) {
	n := buildRich(t, 42)
	churn(n)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.state.Queue) == 0 {
		t.Fatal("test wants a mid-convergence capture with in-flight deliveries")
	}
	warm := false
	for _, node := range snap.state.Nodes {
		if len(node.Speaker.FIB.Warm) > 0 {
			warm = true
		}
	}
	if !warm {
		t.Fatal("test wants at least one warm FIB entry serialized")
	}
	snap.Meta["purpose"] = "round-trip"
	snap.Meta["seed"] = "42"

	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(snap.state, dec.state) {
		t.Fatal("decode(encode(state)) differs from state")
	}
	if !reflect.DeepEqual(snap.Meta, dec.Meta) {
		t.Fatalf("meta round-trip: %v != %v", dec.Meta, snap.Meta)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	n := buildRich(t, 7)
	a, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := a.Encode()
	eb, _ := b.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("two captures of the same network encode differently")
	}
}

func TestCaptureRejectsPendingControlEvent(t *testing.T) {
	n := buildRich(t, 3)
	n.After(time.Millisecond, func() {})
	if _, err := Capture(n); err == nil {
		t.Fatal("capture with a pending control callback must fail")
	}
	n.Converge()
	if _, err := Capture(n); err != nil {
		t.Fatalf("capture after the callback fired: %v", err)
	}
}

func TestRestoreStateMatchesOriginal(t *testing.T) {
	n := buildRich(t, 11)
	churn(n)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	// The cut must exercise what the network stores differently from the
	// format: queued deliveries (slab slots) and per-session FIFO times in
	// both directions (two slots on the session, keyed strings here).
	if len(snap.state.Queue) == 0 {
		t.Fatal("test wants a mid-convergence capture with in-flight deliveries")
	}
	receivers := map[string]int{}
	both := false
	for _, f := range snap.state.FIFO {
		sess := f.Key[:strings.LastIndexByte(f.Key, '>')]
		receivers[sess]++
		both = both || receivers[sess] == 2
	}
	if !both {
		t.Fatal("test wants a session with FIFO times in both directions")
	}
	restored, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	resnap, err := Capture(restored)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := snap.Encode()
	eb, _ := resnap.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("capture(restore(snap)) != snap")
	}
}

// TestDecodeOwnsItsSlices holds the decoder's side of the immutability
// contract: what Decode returns is freshly allocated — it aliases neither
// the input buffer nor another decode of the same bytes — so the engine may
// keep a restored UPDATE's AS path and communities by reference.
func TestDecodeOwnsItsSlices(t *testing.T) {
	n := buildRich(t, 42)
	churn(n)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Clone(enc)
	a, err := Decode(input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(input)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range a.state.Queue {
		ua, ub := &a.state.Queue[i].Update, &b.state.Queue[i].Update
		if len(ua.ASPath) > 0 {
			if &ua.ASPath[0] == &ub.ASPath[0] {
				t.Fatalf("queued UPDATE %d: two decodes share one AS path", i)
			}
			checked++
		}
		if len(ua.Communities) > 0 && &ua.Communities[0] == &ub.Communities[0] {
			t.Fatalf("queued UPDATE %d: two decodes share one community list", i)
		}
	}
	if checked == 0 {
		t.Fatal("no queued announcement to check")
	}
	clear(input) // scribble over the buffer the snapshot was decoded from
	again, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatal("decoded snapshot changed when its input buffer was overwritten")
	}
}

func TestForkIndependence(t *testing.T) {
	n := buildRich(t, 5)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := snap.Encode()

	forks, err := snap.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	// Diverge fork 0; fork 1 stays untouched.
	forks[0].SetDeviceUp(topo.FADUID(0, 0), false)
	forks[0].Converge()

	s0, err := Capture(forks[0])
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Capture(forks[1])
	if err != nil {
		t.Fatal(err)
	}
	e0, _ := s0.Encode()
	e1, _ := s1.Encode()
	if bytes.Equal(e0, base) {
		t.Fatal("diverged fork still matches the snapshot")
	}
	if !bytes.Equal(e1, base) {
		t.Fatal("untouched fork drifted from the snapshot")
	}
	// The original network is also unaffected by fork divergence.
	again, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	eAgain, _ := again.Encode()
	if !bytes.Equal(eAgain, base) {
		t.Fatal("forking mutated the source network")
	}

	if _, err := snap.Fork(0); err == nil {
		t.Fatal("Fork(0) must fail")
	}
}

func TestSaveLoad(t *testing.T) {
	n := buildRich(t, 9)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta["origin"] = "save-load-test"
	path := filepath.Join(t.TempDir(), "net.csnp")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta["origin"] != "save-load-test" {
		t.Fatalf("meta lost: %v", loaded.Meta)
	}
	if !sameState(snap.state, loaded.state) {
		t.Fatal("loaded state differs")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.csnp")); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	n := buildRich(t, 21)
	churn(n)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any length must error, never panic. Dense coverage of
	// the header plus a deterministic sample of the body.
	check := func(l int) {
		if _, err := Decode(valid[:l]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", l)
		}
	}
	for l := 0; l < 256 && l < len(valid); l++ {
		check(l)
	}
	step := len(valid)/512 + 1
	for l := 256; l < len(valid); l += step {
		check(l)
	}

	// Bad magic.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Unsupported version.
	bad = append([]byte(nil), valid...)
	bad[4] = 0x7F
	if _, err := Decode(bad); err == nil {
		t.Fatal("unsupported version accepted")
	}
	// Arbitrary bit flips must never panic (they may or may not error).
	for off := 5; off < len(valid); off += step {
		bad = append([]byte(nil), valid...)
		bad[off] ^= 0x55
		_, _ = Decode(bad) //nolint:errcheck // only panics are failures here
	}
}

func TestDecodeRejectsDuplicateSection(t *testing.T) {
	n := buildRich(t, 2)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := snap.Encode()
	// Append a second copy of the first section (tag byte + uvarint length
	// + body) after the valid stream.
	r := &reader{b: valid, off: 5} // past magic + version
	tag := r.b[r.off]
	r.off++
	body := r.raw()
	if r.err != nil {
		t.Fatal(r.err)
	}
	dup := append([]byte(nil), valid...)
	w := &writer{buf: dup}
	w.buf = append(w.buf, tag)
	w.bytes(body)
	if _, err := Decode(w.buf); err == nil {
		t.Fatal("duplicate section accepted")
	}
}

func TestRestoreRejectsTamperedState(t *testing.T) {
	n := buildRich(t, 13)
	snap, err := Capture(n)
	if err != nil {
		t.Fatal(err)
	}
	// A state naming a device absent from the topology must fail to
	// restore.
	tampered := *snap.state
	tampered.Nodes = append([]fabric.NodeState(nil), tampered.Nodes...)
	tampered.Nodes[0].Device = "no-such-device"
	if _, err := fabric.NewFromState(&tampered, fabric.RestoreOptions{}); err == nil {
		t.Fatal("restore with unknown device accepted")
	}
}

func TestEmptySnapshotErrors(t *testing.T) {
	var s Snapshot
	if _, err := s.Encode(); err == nil {
		t.Fatal("Encode on empty snapshot must fail")
	}
	if _, err := s.Restore(); err == nil {
		t.Fatal("Restore on empty snapshot must fail")
	}
	if s.Now() != 0 {
		t.Fatal("Now on empty snapshot must be 0")
	}
}

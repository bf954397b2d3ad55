package snapshot

// The cross-commit wire golden: the fixtures under testdata/wire were
// written by the commit *before* the checkpoint state moved to the engine's
// column layout; they are plain checked-in files and nothing in the tree
// rewrites them (at a deliberate CSNP version bump, regenerate them once by
// hand from the then-parent tree). The at-rest form of a snapshot is free to
// change; the bytes Encode writes for a given network are not. Each fixture
// rebuilds its network from scratch with today's engine, so the test also
// pins that the engine reaches the same state.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// mediumFabric is the 116-device benchmark fabric.
var mediumFabric = topo.FabricParams{
	Pods: 8, RSWsPerPod: 6, FSWsPerPod: 4, Planes: 4,
	SSWsPerPlane: 4, Grids: 2, FADUsPerGrid: 4, FAUUsPerGrid: 4, EBs: 4,
}

// buildMediumFabric converges the benchmark fabric.
func buildMediumFabric(seed int64) *fabric.Network { return buildFabric(mediumFabric, seed) }

// buildFabric converges a fabric carrying the backbone default route from
// every EB plus one rack /24 per RSW.
func buildFabric(params topo.FabricParams, seed int64) *fabric.Network {
	tp := topo.BuildFabric(params)
	n := fabric.New(tp, fabric.Options{Seed: seed})
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, defaultRoute, []string{backboneCommunity}, 0)
	}
	for _, rsw := range tp.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index)), nil, 0)
	}
	n.Converge()
	return n
}

var wireGoldens = []struct {
	name      string
	keepBytes bool // check in the encoding itself, not only its hash
	build     func(tb testing.TB) *fabric.Network
}{
	{"small-quiescent", true, func(tb testing.TB) *fabric.Network { return buildRich(tb, 42) }},
	{"medium-quiescent", false, func(testing.TB) *fabric.Network { return buildMediumFabric(42) }},
	{"medium-midconvergence", false, func(tb testing.TB) *fabric.Network {
		n := buildMediumFabric(42)
		n.SetDrained(topo.SSWID(1, 2), true)
		n.SetLinkUp(topo.FSWID(3, 0), topo.SSWID(0, 1), false)
		n.WithdrawAt(topo.EBID(0), defaultRoute)
		n.Step(700)
		if n.PendingEvents() == 0 {
			tb.Fatal("fixture wants in-flight deliveries")
		}
		return n
	}},
}

func TestWireGolden(t *testing.T) {
	for _, g := range wireGoldens {
		t.Run(g.name, func(t *testing.T) {
			snap, err := Capture(g.build(t))
			if err != nil {
				t.Fatal(err)
			}
			snap.Meta["fixture"] = g.name
			enc, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			shaPath := filepath.Join("testdata", "wire", g.name+".sha256")
			binPath := filepath.Join("testdata", "wire", g.name+".csnp")
			want, err := os.ReadFile(shaPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Fatalf("Encode() sha256 = %s, the parent commit wrote %s (%d bytes now)", got, strings.TrimSpace(string(want)), len(enc))
			}

			// Today's decoder round-trips what the parent wrote: the decoded
			// snapshot re-encodes to the same bytes and restores to a network
			// whose own capture is again those bytes.
			old := enc
			if g.keepBytes {
				if old, err = os.ReadFile(binPath); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(old, enc) {
					t.Fatal("checked-in bytes differ from today's encoding")
				}
			}
			dec, err := Decode(old)
			if err != nil {
				t.Fatal(err)
			}
			again, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, old) {
				t.Fatal("Encode(Decode(parent bytes)) != parent bytes")
			}
			restored, err := dec.Restore()
			if err != nil {
				t.Fatal(err)
			}
			resnap, err := Capture(restored)
			if err != nil {
				t.Fatal(err)
			}
			resnap.Meta = dec.Meta
			re, err := resnap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, old) {
				t.Fatal("Capture(Restore(Decode(parent bytes))) does not encode to the parent bytes")
			}
		})
	}
}

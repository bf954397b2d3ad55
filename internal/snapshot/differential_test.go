package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"

	"centralium/internal/fabric"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
)

// The restore differential: checkpointing a run mid-convergence, shipping
// the snapshot through the wire format, and restoring must be invisible —
// the concatenated telemetry stream (before the cut + after restore) and
// the final state fingerprint must be byte-identical to an uninterrupted
// run. Checked across 10 seeds and two scenario geometries.

type diffScenario struct {
	name    string
	build   func(seed int64) *fabric.Network
	disturb func(n *fabric.Network)
}

func buildMeshScenario(seed int64) *fabric.Network {
	mesh := topo.BuildMesh(topo.MeshParams{})
	n := fabric.New(mesh, fabric.Options{Seed: seed})
	for i := 0; i < 2; i++ {
		n.OriginateAt(topo.EBID(i), defaultRoute, []string{backboneCommunity}, 0)
	}
	for i, fsw := range mesh.ByLayer(topo.LayerFSW) {
		n.OriginateAt(fsw.ID, netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/24", i)), []string{"rack"}, 100)
	}
	return n
}

func buildPodScenario(seed int64) *fabric.Network {
	fab := topo.BuildFabric(topo.FabricParams{
		Pods: 2, RSWsPerPod: 2, FSWsPerPod: 2, Planes: 2,
		SSWsPerPlane: 2, Grids: 2, FADUsPerGrid: 2, FAUUsPerGrid: 2, EBs: 2,
	})
	n := fabric.New(fab, fabric.Options{Seed: seed})
	for i := 0; i < 2; i++ {
		n.OriginateAt(topo.EBID(i), defaultRoute, []string{backboneCommunity}, 0)
	}
	for i, rsw := range fab.ByLayer(topo.LayerRSW) {
		n.OriginateAt(rsw.ID, netip.MustParsePrefix(fmt.Sprintf("10.128.%d.0/24", i)), []string{"rack"}, 50)
	}
	return n
}

var diffScenarios = []diffScenario{
	{
		name:    "mesh-decom",
		build:   buildMeshScenario,
		disturb: func(n *fabric.Network) { n.SetDeviceUp(topo.SSWID(0, 0), false) },
	},
	{
		name:    "pod-drain",
		build:   buildPodScenario,
		disturb: func(n *fabric.Network) { n.SetDrained(topo.FSWID(0, 0), true) },
	},
}

func eventLine(ev telemetry.Event) string {
	b, err := json.Marshal(ev)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func recordTap(n *fabric.Network, lines *[]string) {
	n.AddTap(telemetry.TapFunc(func(ev telemetry.Event) {
		*lines = append(*lines, eventLine(ev))
	}))
}

// fingerprint is the network's full encoded state.
func fingerprint(tb testing.TB, n *fabric.Network) []byte {
	tb.Helper()
	snap, err := Capture(n)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

func TestRestoreDifferential(t *testing.T) {
	const checkpointAfter = 200
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				// Uninterrupted reference run.
				ref := sc.build(seed)
				var refLines []string
				recordTap(ref, &refLines)
				ref.Converge()
				sc.disturb(ref)
				ref.Converge()
				refPrint := fingerprint(t, ref)

				// Interrupted run: checkpoint mid-convergence, ship
				// through the wire format, restore, continue.
				run := sc.build(seed)
				var lines []string
				recordTap(run, &lines)
				run.Step(checkpointAfter)
				snap, err := Capture(run)
				if err != nil {
					t.Fatalf("seed %d: capture: %v", seed, err)
				}
				enc, err := snap.Encode()
				if err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				dec, err := Decode(enc)
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				restored, err := dec.Restore()
				if err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				recordTap(restored, &lines)
				restored.Converge()
				sc.disturb(restored)
				restored.Converge()
				gotPrint := fingerprint(t, restored)

				if len(lines) != len(refLines) {
					t.Fatalf("seed %d: telemetry stream length %d != %d", seed, len(lines), len(refLines))
				}
				for i := range lines {
					if lines[i] != refLines[i] {
						t.Fatalf("seed %d: telemetry diverges at event %d:\n  restored: %s\n  reference: %s",
							seed, i, lines[i], refLines[i])
					}
				}
				if !bytes.Equal(gotPrint, refPrint) {
					t.Fatalf("seed %d: final state fingerprint differs after restore", seed)
				}
			}
		})
	}
}

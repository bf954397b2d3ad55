package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"centralium/internal/fabric"
)

// The full-recompute mode is not part of a fabric's captured state: the
// advertise memo and its hit counter are derived state, rebuilt lazily
// after a restore. These tests pin the two halves of that contract — equal
// runs fingerprint equally regardless of mode, and a checkpoint taken under
// either mode restores into either mode and continues byte-identically.

// TestFingerprintModePortability runs the same scenario under the oracle
// and with the memo trusted and requires byte-equal state encodings: if
// any derived field leaked into SpeakerState, the codec — not just the tap
// stream — would betray the mode.
func TestFingerprintModePortability(t *testing.T) {
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			prints := make([][]byte, 2)
			for i, full := range []bool{true, false} {
				n := sc.build(7)
				n.SetFullRecompute(full)
				n.Converge()
				sc.disturb(n)
				n.Converge()
				if full != n.FullRecompute() {
					t.Fatalf("FullRecompute() = %v, want %v", n.FullRecompute(), full)
				}
				prints[i] = fingerprint(t, n)
			}
			if !bytes.Equal(prints[0], prints[1]) {
				t.Fatal("state fingerprints differ between full-recompute and incremental runs")
			}
		})
	}
}

// TestRestoreCrossEngineMode checkpoints a run mid-convergence under one
// mode and restores it into the other (all four mode pairs), continuing
// each against an uninterrupted memo-trusting reference. Telemetry streams
// and final fingerprints must stay byte-identical: restores are
// mode-portable because a restored speaker trusts no memo it has not
// recorded since the restore.
func TestRestoreCrossEngineMode(t *testing.T) {
	const checkpointAfter = 200
	for _, sc := range diffScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				ref := sc.build(seed)
				ref.SetFullRecompute(false)
				var refLines []string
				recordTap(ref, &refLines)
				ref.Converge()
				sc.disturb(ref)
				ref.Converge()
				refPrint := fingerprint(t, ref)

				for _, pair := range []struct{ before, after bool }{
					{false, false}, {false, true}, {true, false}, {true, true},
				} {
					label := fmt.Sprintf("seed %d %v->%v", seed, pair.before, pair.after)
					run := sc.build(seed)
					run.SetFullRecompute(pair.before)
					var lines []string
					recordTap(run, &lines)
					run.Step(checkpointAfter)
					snap, err := Capture(run)
					if err != nil {
						t.Fatalf("%s: capture: %v", label, err)
					}
					enc, err := snap.Encode()
					if err != nil {
						t.Fatalf("%s: encode: %v", label, err)
					}
					dec, err := Decode(enc)
					if err != nil {
						t.Fatalf("%s: decode: %v", label, err)
					}
					restored, err := dec.RestoreWith(fabric.RestoreOptions{FullRecompute: pair.after})
					if err != nil {
						t.Fatalf("%s: restore: %v", label, err)
					}
					if !pair.after {
						// RestoreOptions.FullRecompute=false means "fleet
						// default"; pin incremental explicitly so the test
						// is env-independent.
						restored.SetFullRecompute(false)
					}
					recordTap(restored, &lines)
					restored.Converge()
					sc.disturb(restored)
					restored.Converge()

					if len(lines) != len(refLines) {
						t.Fatalf("%s: telemetry stream length %d != %d", label, len(lines), len(refLines))
					}
					for i := range lines {
						if lines[i] != refLines[i] {
							t.Fatalf("%s: telemetry diverges at event %d:\n  restored: %s\n  reference: %s",
								label, i, lines[i], refLines[i])
						}
					}
					if got := fingerprint(t, restored); !bytes.Equal(got, refPrint) {
						t.Fatalf("%s: final state fingerprint differs after cross-mode restore", label)
					}
				}
			}
		})
	}
}

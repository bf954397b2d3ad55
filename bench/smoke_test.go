package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs every workload in -quick shape (one warm-up and one
// measured round of a shrunken op list), untraced and traced, and holds
// each to its own output checks. It asserts nothing about time.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			o := options{seed: 7, quick: true, out: out}

			metrics, res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed", res.failed, res.attempted)
			}
			if len(metrics) != len(endToEndSpec) {
				t.Fatalf("untraced: %d metrics, want %d", len(metrics), len(endToEndSpec))
			}
			for i, m := range metrics {
				if m.name != endToEndSpec[i].name || m.unit != endToEndSpec[i].unit {
					t.Errorf("metric %d is %s [%s], want %s [%s]", i, m.name, m.unit, endToEndSpec[i].name, endToEndSpec[i].unit)
				}
				if !(m.value > 0) {
					t.Errorf("%s = %v, want a positive number", m.name, m.value)
				}
			}
			digest := res.digest

			o.trace = 1
			metrics, res, err = runWorkload(w, o)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed", res.failed, res.attempted)
			}
			if res.digest != digest {
				t.Errorf("the same seed produced outputs %s traced and %s untraced", res.digest, digest)
			}
			if len(metrics) != len(perLayerSpec) {
				t.Fatalf("traced: %d metrics, want %d", len(metrics), len(perLayerSpec))
			}
			moved := 0
			for i, m := range metrics {
				if m.name != perLayerSpec[i].name {
					t.Errorf("metric %d is %s, want %s", i, m.name, perLayerSpec[i].name)
				}
				if m.value != 0 {
					moved++
				}
			}
			if moved < 10 {
				t.Errorf("only %d per-layer metrics are non-zero", moved)
			}
			spans, _ := filepath.Glob(filepath.Join(out, "spans-*.json"))
			if len(spans) != 1 {
				t.Errorf("want one span file under %s, found %v", out, spans)
			}
			left, _ := filepath.Glob(filepath.Join(out, "tmp-*"))
			if len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

func TestRefusesEngineEnv(t *testing.T) {
	for _, v := range []string{"CENTRALIUM_PARALLEL", "CENTRALIUM_FULL_RECOMPUTE"} {
		t.Setenv(v, "1")
		if err := run(options{workload: "converge-cold", quick: true, out: t.TempDir()}); err == nil {
			t.Errorf("run with %s set did not refuse", v)
		}
		os.Unsetenv(v)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runResult is the result line of one child run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// childRun runs this binary once on one workload and parses the last line
// it printed. It also returns the run's output digest.
func childRun(o options, workload string, seed int64) (*runResult, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
		"-out", o.out)
	if o.quick {
		cmd.Args = append(cmd.Args, "-quick")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, "", fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	digest := ""
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "context "); ok {
			var ctx struct {
				Digest string `json:"output_digest"`
			}
			if json.Unmarshal([]byte(rest), &ctx) == nil {
				digest = ctx.Digest
			}
		}
	}
	return &res, digest, nil
}

// selfcheck runs every workload as two sets of runs of this same binary,
// A then B, each over seeds 1..runs, and compares the sets' medians. Two
// sets of the same code must agree within the bounds the benchmark asks
// later changes to respect; a metric that cannot is too noisy to bound.
// It also checks that the same seed produced the same outputs both times.
func selfcheck(o options) error {
	if o.runs < 3 {
		return fmt.Errorf("-selfcheck needs -runs of at least 3")
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	exceeded := 0
	for _, name := range names {
		if findWorkload(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		sets := [2]map[string][]float64{{}, {}}
		var digests [2][]string
		for set := range sets {
			for seed := int64(1); seed <= int64(o.runs); seed++ {
				res, digest, err := childRun(o, name, seed)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
				}
				digests[set] = append(digests[set], digest)
				for m, v := range res.Metrics {
					sets[set][m] = append(sets[set][m], v.Value)
				}
			}
		}
		for i := range digests[0] {
			if digests[0][i] != digests[1][i] {
				return fmt.Errorf("%s seed %d: outputs differ between two runs of the same seed (%s, %s)",
					name, i+1, digests[0][i], digests[1][i])
			}
		}
		fmt.Printf("%s: two sets of %d runs, outputs identical per seed\n", name, o.runs)
		fmt.Printf("  %-18s %14s %14s %9s %7s\n", "metric", "median A", "median B", "|A-B|/A", "bound")
		for _, b := range endToEndSpec {
			a, bb := median(sets[0][b.name]), median(sets[1][b.name])
			diff := (bb - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > b.bound {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("  %-18s %14.4f %14.4f %9.4f %7.2f%s\n", b.name, a, bb, diff, b.bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of the same code by more than their bound", exceeded)
	}
	return nil
}

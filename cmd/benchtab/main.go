// Command benchtab regenerates the paper's tables and figures on the
// emulated substrate. Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Usage:
//
//	benchtab -list
//	benchtab -exp fig2 [-seed 42]
//	benchtab -all
//	benchtab -exp fig4 -json            # one machine-readable report per line
//	benchtab -warm -exp sweep-mnh
//
// -warm warm-starts the sweep experiments: each sweep's shared
// pre-migration base is built once, checkpointed, and forked per
// measurement (see internal/snapshot) instead of rebuilt from scratch. It
// never changes a table — the warm-vs-cold equality tests enforce
// byte-identical output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"centralium/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments")
		seed    = flag.Int64("seed", 42, "emulation seed")
		jsonOut = flag.Bool("json", false, "emit one JSON report per experiment instead of text")
		warm    = flag.Bool("warm", false, "warm-start sweeps from forked checkpoints of shared bases (byte-identical tables, less wall-clock)")
	)
	flag.Parse()

	if *warm {
		experiments.SetWarmStart(true)
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range experiments.All() {
			if err := emit(e.ID, *seed, *jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
		}
	case *exp != "":
		if err := emit(*exp, *seed, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// emit runs one experiment and prints it, as text or as one JSON report
// line (the format the telemetry collector's replay tests consume).
func emit(id string, seed int64, jsonOut bool) error {
	if !jsonOut {
		out, err := experiments.Run(id, seed)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	rep, err := experiments.RunReport(id, seed)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

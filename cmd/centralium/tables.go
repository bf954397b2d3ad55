package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"centralium/internal/experiments"
)

// tablesCmd regenerates the paper's tables and figures. Each experiment
// prints the rows or series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison. Sweeps measure on forks of one captured
// base per point (internal/experiments/warm.go).
func tablesCmd(fs *flag.FlagSet) runFunc {
	var (
		exp     = fs.String("exp", "", "experiment `id` to run (see -list)")
		list    = fs.Bool("list", false, "list experiments")
		all     = allFlag(fs)
		seed    = seedFlag(fs)
		jsonOut = fs.Bool("json", false, "print one JSON object per line instead of text")
	)
	// emit runs one experiment and prints it, as text or as one JSON
	// report line (the format the telemetry collector's replay tests
	// consume).
	emit := func(w io.Writer, id string) error {
		if !*jsonOut {
			out, err := experiments.Run(id, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, out)
			return nil
		}
		rep, err := experiments.RunReport(id, *seed)
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(rep)
	}
	return func(_ string, stdout, _ io.Writer) error {
		switch {
		case *list:
			for _, e := range experiments.All() {
				fmt.Fprintf(stdout, "%-14s %s\n", e.ID, e.Title)
			}
		case *all:
			for _, e := range experiments.All() {
				if err := emit(stdout, e.ID); err != nil {
					return err
				}
			}
		case *exp != "":
			return emit(stdout, *exp)
		default:
			return usagef("pick -list, -exp <id> or -all")
		}
		return nil
	}
}

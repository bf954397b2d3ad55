package main

import (
	"flag"
	"fmt"
	"io"

	"centralium/internal/migrate"
	"centralium/internal/topo"
)

// migrateCmd executes one of the paper's migration scenarios on the
// emulated fabric, with or without RPA protection, and prints the measured
// funneling / loss / next-hop-group metrics. To run a scenario's RPA
// campaign under the guard supervisor instead of this bare measurement
// harness, use `plan score -guard` (fig10 is the expansion campaign,
// decommission the decommission one).
func migrateCmd(fs *flag.FlagSet) runFunc {
	var (
		scenario = scenarioFlag(fs)
		useRPA   = fs.Bool("rpa", false, "protect the migration with RPAs")
		seed     = seedFlag(fs)
		prefixes = fs.Int("prefixes", 256, "prefixes for -scenario nhg")
		plan     = fs.Bool("plan", false, "print the Table 3 migration step plans instead of running")
	)
	return func(_ string, stdout, _ io.Writer) error {
		if *plan {
			printPlans(stdout)
			return nil
		}
		if err := oneOf("scenario", *scenario, []string{"expansion", "decommission", "nhg"}); err != nil {
			return err
		}
		switch *scenario {
		case "expansion":
			r := migrate.RunScenario1(migrate.Scenario1Params{Seed: *seed, UseRPA: *useRPA})
			fmt.Fprintf(stdout, "scenario 1 (topology expansion), rpa=%v\n", *useRPA)
			fmt.Fprintf(stdout, "  peak aggregation-device share: %.3f (fair %.3f)\n", r.PeakShare, r.FairShare)
			fmt.Fprintf(stdout, "  final share after convergence: %.3f\n", r.FinalShare)
			fmt.Fprintf(stdout, "  events: %d\n", r.Events)
		case "decommission":
			r := migrate.RunScenario2(migrate.Scenario2Params{Seed: *seed, UseRPA: *useRPA, KeepFibWarm: *useRPA})
			fmt.Fprintf(stdout, "scenario 2 (decommission), rpa=%v\n", *useRPA)
			fmt.Fprintf(stdout, "  peak FADU share: %.3f (fair %.3f)\n", r.PeakFADUShare, r.FairShare)
			fmt.Fprintf(stdout, "  peak blackholed fraction: %.3f\n", r.PeakBlackholed)
			fmt.Fprintf(stdout, "  events: %d\n", r.Events)
		case "nhg":
			r := migrate.RunScenario3(migrate.Scenario3Params{Seed: *seed, UseRPA: *useRPA, Prefixes: *prefixes})
			fmt.Fprintf(stdout, "scenario 3 (WCMP convergence), rpa=%v\n", *useRPA)
			fmt.Fprintf(stdout, "  peak next-hop groups on DU: %d (steady %d)\n", r.PeakNHG, r.SteadyNHG)
			fmt.Fprintf(stdout, "  hardware overflows: %d, group churn: %d\n", r.Overflows, r.GroupChurn)
			fmt.Fprintf(stdout, "  events: %d\n", r.Events)
		}
		return nil
	}
}

func printPlans(w io.Writer) {
	tp := topo.BuildFabric(topo.FabricParams{})
	for _, c := range migrate.Categories() {
		fmt.Fprintf(w, "%s %s\n", c.Label(), c)
		for _, withRPA := range []bool{false, true} {
			p := migrate.PlanFor(c, withRPA)
			mode := "without RPA"
			if withRPA {
				mode = "with RPA   "
			}
			fmt.Fprintf(w, "  %s: %d steps, %.1f days\n", mode, p.NumSteps(), p.Days())
			for i, s := range p.Steps {
				fmt.Fprintf(w, "    %d. %s\n", i+1, s.Name)
			}
		}
		fmt.Fprintf(w, "  generated RPA: %d LOC\n\n", migrate.RPAIntentFor(c, tp).TotalLOC())
	}
}

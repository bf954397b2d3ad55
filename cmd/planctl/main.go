// Command planctl drives the migration campaign planner: it searches
// deployment schedules for an RPA migration by forking a converged
// fabric snapshot and pushing every candidate through the real rollout
// path, then reports the safest schedule found.
//
// Usage:
//
//	planctl plan -scenario fig10 -seed 1 -bare -batch 1,2
//	planctl plan -scenario decommission -checkpoint search.ckpt
//	planctl plan -resume search.ckpt
//	planctl plan -scenario fig10 -snapshot state.csnp
//	planctl plan -scenario fig10 -guard -envelope "share=0.6,session-downs=0"
//	planctl score -scenario fig10 -schedule "fsw.pod0.0 > ssw.pl0.0,ssw.pl0.1"
//	planctl score -scenario fig10 -schedule "fa.0,fa.1" -guard -max-retries 1
//	planctl explain -scenario fig10 -schedule "fa.0,fa.1 > ssw.pl0.0"
//	planctl scenarios
//
// plan runs the beam search (resumable via -checkpoint/-resume); score
// evaluates one explicit schedule end to end; explain does the same and
// breaks the cost down per phase against the §5.3.2 bottom-up baseline.
// -scenario names the migration (intent, workload, drains); -snapshot
// optionally replaces the scenario's base state with a captured .csnp.
//
// -guard executes the resulting schedule (plan's winner, or the
// -schedule under score/explain) through the internal/guard supervisor:
// each wave runs under a telemetry probe against the -envelope safety
// bounds, a violating wave rolls back to last-good and retries up to
// -max-retries times with a degraded shape, and a wave that exhausts its
// budget quarantines its devices and aborts with an incident report.
// With -data-dir the guard journals a checkpoint per wave to the store's
// WAL, and an interrupted execution resumes from it on the next run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/store"
)

// journalRecType tags planctl's search-progress records in the WAL;
// guardRecType tags guarded-execution checkpoints.
const (
	journalRecType = 1
	guardRecType   = 2
)

// guardOpts carries the -guard flag family.
type guardOpts struct {
	enabled    bool
	envelope   string
	maxRetries int
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	mode := os.Args[1]
	if mode == "scenarios" {
		for _, name := range planner.ScenarioNames() {
			fmt.Println(name)
		}
		return
	}

	fs := flag.NewFlagSet("planctl "+mode, flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "fig10", "named migration scenario (see `planctl scenarios`)")
		snapPath = fs.String("snapshot", "", "captured .csnp to plan on instead of the scenario's base state")
		seed     = fs.Int64("seed", 1, "search seed (same seed, same snapshot: identical winner)")
		beam     = fs.Int("beam", 0, "beam width (0: planner default)")
		random   = fs.Int("random", 0, "seeded random-batch candidates per node (0: default, -1: none)")
		batches  = fs.String("batch", "1,2", "comma-separated batch sizes to search on the bottom-up wave")
		mnh      = fs.String("mnh", "", "comma-separated MinNextHop percent overrides to search")
		bare     = fs.Bool("bare", false, "also search unprotected (bare) waves")
		workers  = fs.Int("workers", 0, "evaluation pool width (0: 1); never changes results")
		sched    = fs.String("schedule", "", "schedule text to evaluate (score/explain)")
		ckpt     = fs.String("checkpoint", "", "write a resumable search checkpoint (binary container, for -resume) here after every level")
		resume   = fs.String("resume", "", "resume the search from this checkpoint file (JSON checkpoints from older builds still resume)")
		dataDir  = fs.String("data-dir", "", "durable store directory: journal search progress to its WAL and auto-resume an interrupted plan")
		guardX   = fs.Bool("guard", false, "execute the resulting schedule under the guard supervisor")
		envSpec  = fs.String("envelope", "", "guard safety envelope, e.g. \"share=0.6,session-downs=0\" (empty: guard default)")
		retries  = fs.Int("max-retries", 0, "guard per-wave retry budget (0: guard default of 2; -1: abort on first violation)")
	)
	fs.Parse(os.Args[2:])

	g := guardOpts{enabled: *guardX, envelope: *envSpec, maxRetries: *retries}
	if err := run(mode, *scenario, *snapPath, *sched, *ckpt, *resume, *dataDir, g, planner.Params{
		Seed:        *seed,
		Beam:        *beam,
		RandomCands: *random,
		BatchSizes:  parseInts(*batches),
		MinNextHops: parseInts(*mnh),
		SearchBare:  *bare,
		Workers:     *workers,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "planctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: planctl <plan|score|explain|scenarios> [flags]")
	fmt.Fprintln(os.Stderr, "       planctl plan -scenario fig10 -seed 1 [-bare] [-checkpoint f] [-resume f]")
	fmt.Fprintln(os.Stderr, "       planctl score -scenario fig10 -schedule \"dev1 > dev2,dev3\"")
	fmt.Fprintln(os.Stderr, "       planctl plan -scenario fig10 -guard [-envelope spec] [-max-retries n]")
	fmt.Fprintln(os.Stderr, "checkpoint files are a binary container, written for -resume; dumping one is out of scope")
}

// run dispatches one planctl invocation. overrides carries the
// search-shape flags; the scenario supplies intent, workload, and drains.
func run(mode, scenario, snapPath, schedText, ckpt, resume, dataDir string, g guardOpts, overrides planner.Params) error {
	snap, p, err := planner.ScenarioSetup(scenario, overrides.Seed)
	if err != nil {
		return err
	}
	if snapPath != "" {
		if snap, err = snapshot.Load(snapPath); err != nil {
			return err
		}
	}
	p.Seed = overrides.Seed
	p.Beam = overrides.Beam
	p.RandomCands = overrides.RandomCands
	p.SearchBare = overrides.SearchBare
	p.Workers = overrides.Workers
	if len(overrides.BatchSizes) > 0 {
		p.BatchSizes = overrides.BatchSizes
	}
	if len(overrides.MinNextHops) > 0 {
		p.MinNextHops = overrides.MinNextHops
	}

	switch mode {
	case "plan":
		key := fmt.Sprintf("plan-%s-seed%d", scenario, overrides.Seed)
		winner, err := plan(snap, p, ckpt, resume, dataDir, key)
		if err != nil {
			return err
		}
		if g.enabled {
			return execGuarded(snap, p, winner, g, dataDir,
				fmt.Sprintf("guard-%s-seed%d", scenario, overrides.Seed))
		}
		return nil
	case "score", "explain":
		if schedText == "" {
			return fmt.Errorf("%s needs -schedule", mode)
		}
		sched, err := planner.Parse(schedText)
		if err != nil {
			return err
		}
		rep, err := planner.ScoreSchedule(snap, p, sched)
		if err != nil {
			return err
		}
		if mode == "score" {
			fmt.Printf("schedule: %s\nscore:    %s\n", sched, rep.Total)
		} else if err := explain(snap, p, sched, rep); err != nil {
			return err
		}
		if g.enabled {
			return execGuarded(snap, p, sched, g, dataDir,
				fmt.Sprintf("guard-%s-seed%d", scenario, overrides.Seed))
		}
		return nil
	default:
		usage()
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// execGuarded runs one schedule through the guard supervisor and prints
// the decision log and outcome. With a data dir, checkpoints journal to
// the store's WAL (record type guardRecType) and last-good snapshots to
// its object store, so an interrupted execution resumes on the next
// invocation — already-terminal executions just replay their verdict.
func execGuarded(snap *snapshot.Snapshot, p planner.Params, sched planner.Schedule, g guardOpts, dataDir, key string) error {
	env, err := guard.ParseEnvelope(g.envelope)
	if err != nil {
		return err
	}
	c := guard.FromParams(p)
	c.Name = key
	c.Schedule = sched
	c.Envelope = env
	c.Retry.MaxRetries = g.maxRetries
	ctx := context.Background()

	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		j := st.Journal(guardRecType, key)
		c.Journal = j
		c.Objects = st.Objects
		if cp, ok, jerr := j.Latest(); jerr != nil {
			return jerr
		} else if ok {
			fmt.Printf("resuming guarded execution %s from journaled checkpoint\n", key)
			res, rerr := guard.Resume(ctx, cp, c)
			if rerr != nil {
				return rerr
			}
			return printGuard(res)
		}
	}
	res, err := guard.Run(ctx, snap, c)
	if err != nil {
		return err
	}
	return printGuard(res)
}

// printGuard renders a guarded execution's outcome.
func printGuard(res *guard.Result) error {
	fmt.Print(res.Log)
	fmt.Printf("guard: %s (%d/%d waves, %d retried attempt(s), %d rollback(s))\n",
		res.State, res.WavesDone, res.Waves, res.Retries, res.Rollbacks)
	if res.Report != nil {
		fmt.Printf("incident: wave %d attempt %d, quarantined [%s]\n",
			res.Report.Wave, res.Report.Attempt, strings.Join(res.Report.Quarantined, ","))
		for _, v := range res.Report.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if res.Snapshot != nil {
		fp, err := res.Snapshot.Fingerprint()
		if err != nil {
			return err
		}
		fmt.Printf("final state: %s\n", fp)
	}
	return nil
}

// plan runs (or resumes) the beam search, checkpointing between levels
// when asked, and prints the winner against the bottom-up baseline.
// With -data-dir every level is journaled to the store's WAL under the
// scenario/seed key, and an interrupted run resumes from the journal's
// latest checkpoint automatically on the next invocation.
func plan(snap *snapshot.Snapshot, p planner.Params, ckpt, resume, dataDir, key string) (planner.Schedule, error) {
	var journal planner.Journal
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{})
		if err != nil {
			return planner.Schedule{}, err
		}
		defer st.Close()
		j := st.Journal(journalRecType, key)
		journal = j
		if resume == "" {
			if cp, ok, err := j.Latest(); err != nil {
				return planner.Schedule{}, err
			} else if ok {
				s, rerr := planner.ResumeSearch(cp)
				if rerr != nil {
					return planner.Schedule{}, rerr
				}
				fmt.Printf("resuming %s from journaled level %d\n", key, s.Level())
				return finishPlan(s, journal, ckpt)
			}
		}
	}

	var (
		s   *planner.Search
		err error
	)
	if resume != "" {
		data, rerr := os.ReadFile(resume)
		if rerr != nil {
			return planner.Schedule{}, rerr
		}
		if s, err = planner.ResumeSearch(data); err != nil {
			return planner.Schedule{}, err
		}
	} else if s, err = planner.NewSearch(snap, p); err != nil {
		return planner.Schedule{}, err
	}
	return finishPlan(s, journal, ckpt)
}

// finishPlan drives the search to completion under the optional journal
// and file checkpoint, then prints the report and returns the winner.
func finishPlan(s *planner.Search, journal planner.Journal, ckpt string) (planner.Schedule, error) {
	for !s.IsDone() {
		var (
			done bool
			err  error
		)
		if journal != nil {
			done, err = s.StepJournaled(journal)
		} else {
			done, err = s.Step()
		}
		if err != nil {
			return planner.Schedule{}, err
		}
		if ckpt != "" {
			data, cerr := s.Checkpoint()
			if cerr != nil {
				return planner.Schedule{}, cerr
			}
			if cerr := os.WriteFile(ckpt, data, 0o644); cerr != nil {
				return planner.Schedule{}, cerr
			}
		}
		if done {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		return planner.Schedule{}, err
	}
	fmt.Printf("winner:    %s\n           %s\n", res.Winner, res.Score)
	fmt.Printf("bottom-up: %s\n           %s\n", res.Baseline, res.BaselineScore)
	if res.FromBaseline {
		fmt.Println("note: the search found nothing safer; the bottom-up baseline stands.")
	}
	fmt.Printf("search:    %d steps evaluated, %d memo hits, %d completed schedules, %d levels\n",
		res.Stats.StepsEvaluated, res.Stats.MemoHits, res.Stats.Completed, res.Stats.Levels)
	return res.Winner, nil
}

// explain prints the per-phase cost breakdown of one schedule next to
// the §5.3.2 bottom-up baseline's total.
func explain(snap *snapshot.Snapshot, p planner.Params, sched planner.Schedule, rep *planner.Report) error {
	s, err := planner.NewSearch(snap, p)
	if err != nil {
		return err
	}
	baseline := s.BaselineSchedule()
	baseRep, err := planner.ScoreSchedule(snap, p, baseline)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %s\n\n%s\n", sched, rep)
	fmt.Printf("bottom-up baseline: %s\n           %s\n", baseline, baseRep.Total)
	switch {
	case rep.Total.Cmp(baseRep.Total) < 0:
		fmt.Println("verdict: safer than the bottom-up baseline.")
	case rep.Total.Cmp(baseRep.Total) > 0:
		fmt.Println("verdict: worse than the bottom-up baseline.")
	default:
		fmt.Println("verdict: equal to the bottom-up baseline.")
	}
	return nil
}

// parseInts parses a comma-separated integer list; empty gives nil.
func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planctl: bad integer %q in list\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"centralium/internal/guard"
	"centralium/internal/planner"
	"centralium/internal/snapshot"
	"centralium/internal/store"
)

// planJournalRec tags `plan plan`'s search-progress records in the WAL;
// guardJournalRec tags guarded-execution checkpoints.
const (
	planJournalRec  = 1
	guardJournalRec = 2
)

// planCmd drives the migration campaign planner on a named scenario
// (intent, workload, drains; -snapshot replaces its base state): `plan`
// runs the beam search, forking the converged snapshot and pushing every
// candidate through the real rollout path; `score` evaluates one explicit
// -schedule end to end; `explain` does the same and breaks the cost down
// per phase against the §5.3.2 bottom-up baseline. -guard then executes
// the result — plan's winner, or the -schedule — through internal/guard:
// each wave under a telemetry probe against the -envelope bounds, rollback
// to last-good and up to -max-retries degraded retries on a violation,
// quarantine and an incident report past that.
func planCmd(fs *flag.FlagSet) runFunc {
	var (
		scenario = scenarioFlag(fs)
		snapPath = snapshotFlag(fs)
		seed     = seedFlag(fs)
		beam     = fs.Int("beam", 0, "beam width (0: planner default)")
		random   = fs.Int("random", 0, "seeded random-batch candidates per node (0: default, -1: none)")
		batches  = intList{1, 2}
		mnh      intList
		bare     = fs.Bool("bare", false, "also search unprotected (bare) waves")
		sched    = fs.String("schedule", "", "schedule text to evaluate (score/explain)")
		ckpt     = fs.String("checkpoint", "", "write a resumable search checkpoint (binary container, for -resume) to this `file` after every level")
		resume   = fs.String("resume", "", "resume the search from this checkpoint `file` (a version-3 container; older checkpoints are refused)")
		dataDir  = fs.String("data-dir", "", "durable store directory: journal search and guard progress to its WAL and auto-resume an interrupted run")
		guardX   = fs.Bool("guard", false, "execute the resulting schedule under the guard supervisor")
		envSpec  = fs.String("envelope", "", "guard safety envelope, e.g. \"share=0.6,session-downs=0\" (empty: guard default)")
		retries  = fs.Int("max-retries", 0, "guard per-wave retry budget (0: guard default of 2; -1: abort on first violation)")
	)
	fs.Var(&batches, "batch", "comma-separated batch sizes to search on the bottom-up wave (empty: the scenario's own)")
	fs.Var(&mnh, "mnh", "comma-separated MinNextHop percent overrides to search (empty: the scenario's own)")
	return func(mode string, stdout, _ io.Writer) error {
		if mode == "scenarios" {
			for _, name := range planner.ScenarioNames() {
				fmt.Fprintln(stdout, name)
			}
			return nil
		}
		if err := oneOf("scenario", *scenario, planner.ScenarioNames()); err != nil {
			return err
		}
		var env guard.Envelope
		if *guardX {
			var err error
			if env, err = guard.ParseEnvelope(*envSpec); err != nil {
				return usagef("-envelope: %v", err)
			}
		}
		snap, p, err := planner.ScenarioSetup(*scenario, *seed)
		if err != nil {
			return err
		}
		if *snapPath != "" {
			if snap, err = snapshot.Load(*snapPath); err != nil {
				return err
			}
		}
		// The scenario supplies intent, workload and drains; the flags
		// shape the search.
		p.Beam, p.RandomCands, p.SearchBare = *beam, *random, *bare
		if len(batches) > 0 {
			p.BatchSizes = batches
		}
		if len(mnh) > 0 {
			p.MinNextHops = mnh
		}
		// With -data-dir, search levels and guard waves journal to the
		// store's WAL and an interrupted run resumes from it.
		var st *store.Store
		if *dataDir != "" {
			if st, err = store.Open(*dataDir, store.Options{}); err != nil {
				return err
			}
			defer st.Close()
		}

		var schedule planner.Schedule
		if mode == "plan" {
			key := fmt.Sprintf("plan-%s-seed%d", *scenario, *seed)
			if schedule, err = plan(stdout, snap, p, *ckpt, *resume, st, key); err != nil {
				return err
			}
		} else {
			if *sched == "" {
				return usagef("%s needs -schedule", mode)
			}
			if schedule, err = planner.Parse(*sched); err != nil {
				return err
			}
			rep, err := planner.ScoreSchedule(snap, p, schedule)
			if err != nil {
				return err
			}
			if mode == "score" {
				fmt.Fprintf(stdout, "schedule: %s\nscore:    %s\n", schedule, rep.Total)
			} else if err := explain(stdout, snap, p, schedule, rep); err != nil {
				return err
			}
		}
		if !*guardX {
			return nil
		}
		c := guard.FromParams(p)
		c.Name = fmt.Sprintf("guard-%s-seed%d", *scenario, *seed)
		c.Schedule = schedule
		c.Envelope = env
		c.Retry.MaxRetries = *retries
		return execGuarded(stdout, snap, c, st)
	}
}

// execGuarded runs one campaign through the guard supervisor and prints
// the decision log and outcome. With a store, checkpoints journal to its
// WAL (record type guardJournalRec) and last-good snapshots to its object
// store, so an interrupted execution resumes on the next invocation —
// already-terminal executions just replay their verdict.
func execGuarded(w io.Writer, snap *snapshot.Snapshot, c guard.Campaign, st *store.Store) error {
	var saved []byte // the checkpoint to resume from, if any
	if st != nil {
		j := st.Journal(guardJournalRec, c.Name)
		c.Journal = j
		c.Objects = st.Objects
		cp, ok, err := j.Latest()
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(w, "resuming guarded execution %s from journaled checkpoint\n", c.Name)
			saved = cp
		}
	}
	var (
		res *guard.Result
		err error
	)
	if saved != nil {
		res, err = guard.Resume(context.Background(), saved, c)
	} else {
		res, err = guard.Run(context.Background(), snap, c)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Log)
	fmt.Fprintf(w, "guard: %s (%d/%d waves, %d retried attempt(s), %d rollback(s))\n",
		res.State, res.WavesDone, res.Waves, res.Retries, res.Rollbacks)
	if res.Report != nil {
		fmt.Fprintf(w, "incident: wave %d attempt %d, quarantined [%s]\n",
			res.Report.Wave, res.Report.Attempt, strings.Join(res.Report.Quarantined, ","))
		for _, v := range res.Report.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
	if res.Snapshot != nil {
		fp, err := res.Snapshot.Fingerprint()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final state: %s\n", fp)
	}
	return nil
}

// plan runs (or resumes) the beam search and prints the winner against the
// bottom-up baseline. After every level the search state goes to the sinks
// that were asked for: the -checkpoint file and, with a store, its WAL
// under the scenario/seed key — from whose latest record an interrupted
// run resumes on the next invocation, unless -resume names a file to start
// from instead.
func plan(w io.Writer, snap *snapshot.Snapshot, p planner.Params, ckpt, resume string, st *store.Store, key string) (planner.Schedule, error) {
	var (
		none  planner.Schedule
		saved []byte // the checkpoint to resume from, if any
		wal   planner.Journal
		err   error
	)
	if resume != "" {
		if saved, err = os.ReadFile(resume); err != nil {
			return none, err
		}
	}
	if st != nil {
		j := st.Journal(planJournalRec, key)
		wal = j
		if resume == "" {
			cp, ok, err := j.Latest()
			if err != nil {
				return none, err
			}
			if ok {
				saved = cp
			}
		}
	}

	var s *planner.Search
	if saved != nil {
		s, err = planner.ResumeSearch(saved)
	} else {
		s, err = planner.NewSearch(snap, p)
	}
	if err != nil {
		return none, err
	}
	if saved != nil && resume == "" {
		fmt.Fprintf(w, "resuming %s from journaled level %d\n", key, s.Level())
	}

	var sinks planner.Journal // nil when there is nothing to save: no checkpoint is encoded
	if ckpt != "" || wal != nil {
		sinks = planner.JournalFunc(func(level int, cp []byte) error {
			if ckpt != "" {
				if err := os.WriteFile(ckpt, cp, 0o644); err != nil {
					return err
				}
			}
			if wal != nil {
				return wal.SaveProgress(level, cp)
			}
			return nil
		})
	}
	if _, err := s.Drive(context.Background(), 0, sinks); err != nil {
		return none, err
	}
	res, err := s.Result()
	if err != nil {
		return none, err
	}
	fmt.Fprintf(w, "winner:    %s\n           %s\n", res.Winner, res.Score)
	fmt.Fprintf(w, "bottom-up: %s\n           %s\n", res.Baseline, res.BaselineScore)
	if res.FromBaseline {
		fmt.Fprintln(w, "note: the search found nothing safer; the bottom-up baseline stands.")
	}
	fmt.Fprintf(w, "search:    %d steps evaluated, %d memo hits, %d completed schedules, %d levels\n",
		res.Stats.StepsEvaluated, res.Stats.MemoHits, res.Stats.Completed, res.Stats.Levels)
	return res.Winner, nil
}

// explain prints the per-phase cost breakdown of one schedule next to
// the §5.3.2 bottom-up baseline's total.
func explain(w io.Writer, snap *snapshot.Snapshot, p planner.Params, sched planner.Schedule, rep *planner.Report) error {
	s, err := planner.NewSearch(snap, p)
	if err != nil {
		return err
	}
	baseline := s.BaselineSchedule()
	baseRep, err := planner.ScoreSchedule(snap, p, baseline)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schedule: %s\n\n%s\n", sched, rep)
	fmt.Fprintf(w, "bottom-up baseline: %s\n           %s\n", baseline, baseRep.Total)
	switch {
	case rep.Total.Cmp(baseRep.Total) < 0:
		fmt.Fprintln(w, "verdict: safer than the bottom-up baseline.")
	case rep.Total.Cmp(baseRep.Total) > 0:
		fmt.Fprintln(w, "verdict: worse than the bottom-up baseline.")
	default:
		fmt.Fprintln(w, "verdict: equal to the bottom-up baseline.")
	}
	return nil
}

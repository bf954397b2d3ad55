package planner

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/snapshot"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// Params configures one planning run. Everything in here is plain data
// (no closures), so a mid-search checkpoint can serialize the whole
// search including its parameters.
type Params struct {
	// Seed drives candidate generation. Same seed, same snapshot, same
	// winning schedule — byte for byte, at any pool width.
	Seed int64 `json:"seed"`

	// Intent is the migration's per-device RPA assignment (from
	// migrate.RPAIntentFor or a controller application).
	Intent controller.Intent `json:"intent"`
	// OriginAltitude anchors the §5.3.2 layer ordering (the baseline and
	// the bottom-up candidate family).
	OriginAltitude int `json:"origin_altitude"`

	// Demands is the workload the transient metrics are computed under.
	Demands []traffic.Demand `json:"demands"`
	// Watch is the device set whose peak traffic share defines the
	// funneling metric (the hot layer of Figures 2/4/10).
	Watch []topo.DeviceID `json:"watch"`
	// FairShare is the reference share for the funneling detector
	// (0 gets 1/len(Watch)).
	FairShare float64 `json:"fair_share"`
	// BlackholeEps is the black-holed fraction above which virtual time
	// counts toward the black-hole window (0 gets 0.001).
	BlackholeEps float64 `json:"blackhole_eps"`

	// Drain, when non-empty, is the migration body executed after full
	// deployment on every terminal candidate: the devices drain in order
	// with DrainStaggerNs between them (0 gets 20ms).
	Drain          []topo.DeviceID `json:"drain,omitempty"`
	DrainStaggerNs int64           `json:"drain_stagger_ns,omitempty"`

	// Beam is the search width (0 gets 4); RandomCands is the number of
	// seeded random-batch successors generated per node (0 gets 2).
	Beam        int `json:"beam"`
	RandomCands int `json:"random_cands"`
	// BatchSizes lists the prefix batch splits tried on the bottom-up
	// wave (nil gets [1]).
	BatchSizes []int `json:"batch_sizes,omitempty"`
	// MinNextHops lists MinNextHop percentage overrides to search; they
	// only generate candidates when the intent carries a
	// BgpNativeMinNextHop statement.
	MinNextHops []int `json:"min_next_hops,omitempty"`
	// SearchBare adds the unprotected-wave candidate family.
	SearchBare bool `json:"search_bare,omitempty"`

	// SettlePerDevice is ignored: every step settles after each device
	// (Executor). It stays declared for callers that still read it.
	SettlePerDevice bool `json:"-"`

	// Compiled, when set, holds programs compiled from configs of Intent,
	// keyed by device (controller.Rollout.Compiled): the search's Executor
	// takes them and compiles only the rest. It is a cache, not a parameter,
	// and no checkpoint carries it: a resumed search compiles its intent.
	// centraliumd's snapshot cache compiles each base's intent once and every
	// search on the base shares those programs, read-only.
	Compiled map[topo.DeviceID]*core.Program `json:"-"`
}

func (p *Params) setDefaults() {
	if p.Beam <= 0 {
		p.Beam = 4
	}
	// Negative RandomCands means "none" and must stay negative: the
	// normalized form round-trips through checkpoints and gets
	// re-normalized on resume, so every default here must be a fixed
	// point (0 -> 2 -> 2, -1 -> -1).
	if p.RandomCands == 0 {
		p.RandomCands = 2
	}
	if len(p.BatchSizes) == 0 {
		p.BatchSizes = []int{1}
	}
	if p.BlackholeEps <= 0 {
		p.BlackholeEps = 0.001
	}
	if p.FairShare <= 0 && len(p.Watch) > 0 {
		p.FairShare = 1 / float64(len(p.Watch))
	}
}

// Candidate is one fully evaluated schedule.
type Candidate struct {
	Schedule Schedule
	Score    Score
}

// Stats counts the search's work.
type Stats struct {
	StepsEvaluated int `json:"steps_evaluated"`
	MemoHits       int `json:"memo_hits"`
	Completed      int `json:"completed"`
	Levels         int `json:"levels"`
}

// Result is a finished planning run.
type Result struct {
	// Winner is the chosen schedule. It never loses to the §5.3.2
	// bottom-up baseline on the safety comparator: after the search, the
	// baseline is scored through the same machinery and reclaims the win
	// if the searched schedule black-holes longer, funnels harder, or
	// regresses convergence time by more than 10% (the dominance guard).
	Winner Schedule
	Score  Score

	// Baseline is the §5.3.2 bottom-up schedule and its score.
	Baseline      Schedule
	BaselineScore Score

	// FromBaseline reports that the guard replaced the searched winner
	// with the baseline.
	FromBaseline bool

	Stats Stats
}

// node is one beam entry: a schedule prefix, its accumulated transient
// score, and the fabric state it reaches — the encoded snapshot and its
// fingerprint, and the live snapshot those are the rendering of. snap is nil
// on a node rebuilt from a checkpoint or from a memo entry of an earlier
// level, until an expansion needs it (evaluator.live).
type node struct {
	sched Schedule
	score Score
	snap  *snapshot.Snapshot
	state []byte
	fp    string
}

// Search is a resumable beam search. Step() advances one level;
// Checkpoint() serializes the whole search between levels. One goroutine
// drives a Search at a time; Step fans its evaluations out over a pool of
// its own and folds their results back in on the calling goroutine.
type Search struct {
	p  Params
	ev *evaluator
	// root is the search's root state: a rendered view of the base snapshot,
	// private to the search; base its encoding, baseFP its fingerprint.
	root   *snapshot.Snapshot
	base   []byte
	baseFP string
	// tp is the base's topology, for layer lookups only.
	tp *topo.Topology

	beam      []node
	completed []Candidate
	level     int
	done      bool
	stats     Stats
	memo      map[string]memoEntry

	// objs, when set, holds the states the search's checkpoints name, and
	// those checkpoints are bare.
	objs ObjectStore
}

// memoEntry caches one evaluated expansion keyed by
// (parent-state-fingerprint, step text): identical intermediate states
// share scores no matter which schedule prefix reached them. snap is the
// child state live, for the level that evaluated it only: Step clears it
// once the next beam is chosen, and what is needed again later is decoded
// from child.
type memoEntry struct {
	out   StepOutcome
	snap  *snapshot.Snapshot
	child []byte
	fp    string
}

// NewSearch builds a search over the deployment schedules of p.Intent on
// the captured fabric. The snapshot must hold a quiescent (converged)
// network — which Capture already enforces. The search reads base through a
// rendered view (snapshot.Rendered), which it shares with every search and
// campaign on base holding one at the time; base's state is never written
// and base keeps no bytes once the last view is gone, so any number of
// searches may share one cached base snapshot. The search checkpoints inline.
func NewSearch(base *snapshot.Snapshot, p Params) (*Search, error) {
	return NewSearchWith(base, p, nil)
}

// NewSearchWith is NewSearch for a search whose states live in objs: its
// checkpoints Put the states they name there and carry only their
// fingerprints. A nil objs is NewSearch.
func NewSearchWith(base *snapshot.Snapshot, p Params, objs ObjectStore) (*Search, error) {
	root, err := base.Rendered()
	if err != nil {
		return nil, err
	}
	state, fp, err := canonical(root)
	if err != nil {
		return nil, err
	}
	return newSearch(root, state, fp, p, objs)
}

// canonical returns a rendered snapshot's canonical encoding — never its
// free-form metadata: a search state is a pure state identity — and the
// fingerprint of those bytes. Both are lookups.
func canonical(snap *snapshot.Snapshot) (state []byte, fp string, err error) {
	if state, err = snap.EncodeCanonical(); err != nil {
		return nil, "", err
	}
	fp, err = snap.Fingerprint()
	return state, fp, err
}

// newSearchFromState is the raw-bytes constructor of checkpoint resume; fp
// is state's fingerprint.
func newSearchFromState(state []byte, fp string, p Params, objs ObjectStore) (*Search, error) {
	root, err := snapshot.DecodeRendered(state)
	if err != nil {
		return nil, fmt.Errorf("planner: base snapshot: %w", err)
	}
	return newSearch(root, state, fp, p, objs)
}

// newSearch starts a search at root, a rendered snapshot whose encoding is
// state and whose fingerprint is fp, its states kept in objs when set.
func newSearch(root *snapshot.Snapshot, state []byte, fp string, p Params, objs ObjectStore) (*Search, error) {
	p.setDefaults()
	if len(p.Intent) == 0 {
		return nil, fmt.Errorf("planner: empty intent")
	}
	x, err := NewExecutor(p.Intent, p.Compiled, p.Workload(), p.OriginAltitude)
	if err != nil {
		return nil, err
	}
	if len(p.Watch) == 0 {
		return nil, fmt.Errorf("planner: no watched devices (the funneling metric needs a hot layer)")
	}
	tp, err := root.Topology()
	if err != nil {
		return nil, fmt.Errorf("planner: base snapshot: %w", err)
	}
	for _, d := range sortedDevices(p.Intent) {
		if tp.Device(d) == nil {
			return nil, fmt.Errorf("planner: intent device %s not in the snapshot's topology", d)
		}
	}
	s := &Search{
		p:      p,
		root:   root,
		base:   state,
		baseFP: fp,
		tp:     tp,
		memo:   make(map[string]memoEntry),
		objs:   objs,
	}
	s.ev = &evaluator{p: &s.p, x: x}
	s.beam = []node{{snap: root, state: state, fp: fp}}
	return s, nil
}

// Level returns the number of completed beam levels.
func (s *Search) Level() int { return s.level }

// SearchStats returns a copy of the search's work counters.
func (s *Search) SearchStats() Stats { return s.stats }

// Plan runs a full search and returns the winner.
func Plan(base *snapshot.Snapshot, p Params) (*Result, error) {
	s, err := NewSearch(base, p)
	if err != nil {
		return nil, err
	}
	if _, err := s.Drive(context.Background(), 0, nil); err != nil {
		return nil, err
	}
	return s.Result()
}

// remaining returns the intent devices a schedule has not yet deployed,
// sorted.
func (s *Search) remaining(sched Schedule) []topo.DeviceID {
	deployed := make(map[topo.DeviceID]bool)
	for _, d := range sched.Devices() {
		deployed[d] = true
	}
	var out []topo.DeviceID
	for _, d := range sortedDevices(s.p.Intent) {
		if !deployed[d] {
			out = append(out, d)
		}
	}
	return out
}

// wavesByDistance groups devices by |altitude − origin|, returning the
// groups ordered farthest-first (the §5.3.2 deployment direction), each
// group sorted.
func (s *Search) wavesByDistance(devs []topo.DeviceID) [][]topo.DeviceID {
	byDist := make(map[int][]topo.DeviceID)
	var dists []int
	for _, d := range devs {
		dev := s.tp.Device(d)
		if dev == nil {
			continue
		}
		dist := dev.Layer.Altitude() - s.p.OriginAltitude
		if dist < 0 {
			dist = -dist
		}
		if _, ok := byDist[dist]; !ok {
			dists = append(dists, dist)
		}
		byDist[dist] = append(byDist[dist], d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dists)))
	out := make([][]topo.DeviceID, 0, len(dists))
	for _, dist := range dists {
		wave := byDist[dist]
		sort.Slice(wave, func(i, j int) bool { return wave[i] < wave[j] })
		out = append(out, wave)
	}
	return out
}

// intentHasMinNextHop reports whether any intent statement carries a
// native MinNextHop threshold (the precondition for mnh candidates).
func (s *Search) intentHasMinNextHop() bool {
	for _, d := range sortedDevices(s.p.Intent) {
		for _, st := range s.p.Intent[d].PathSelection {
			if st.BgpNativeMinNextHop.Percent > 0 {
				return true
			}
		}
	}
	return false
}

// candidates generates the successor steps of one beam node, in a
// deterministic order that depends only on (seed, level, node index,
// node schedule) — never on worker count or map iteration.
func (s *Search) candidates(nodeIdx int, nd node) []Step {
	rem := s.remaining(nd.sched)
	if len(rem) == 0 {
		return nil
	}
	waves := s.wavesByDistance(rem)
	bottomUp := waves[0]
	topDown := waves[len(waves)-1]

	var cands []Step
	add := func(st Step) {
		key := st.String()
		for _, c := range cands {
			if c.String() == key {
				return
			}
		}
		cands = append(cands, st)
	}

	// §5.3.2 family: the farthest remaining layer as one wave — the
	// baseline's own next move is always in the candidate set.
	add(Step{Devices: bottomUp})
	// The uncoordinated direction, so the search can prove it loses.
	add(Step{Devices: topDown})
	// Batch splits of the bottom-up wave.
	for _, b := range s.p.BatchSizes {
		if b > 0 && b < len(bottomUp) {
			add(Step{Devices: append([]topo.DeviceID(nil), bottomUp[:b]...)})
		}
	}
	// Protection-threshold overrides.
	if s.intentHasMinNextHop() {
		for _, mnh := range s.p.MinNextHops {
			if mnh > 0 && mnh <= 100 {
				add(Step{Devices: bottomUp, MinNextHop: mnh})
			}
		}
	}
	// The unprotected arm.
	if s.p.SearchBare {
		add(Step{Devices: bottomUp, Bare: true})
	}
	// Seeded random batches: a per-node stream derived from (seed,
	// level, node index) — reproducible, worker-independent.
	rng := newRand(s.p.Seed, int64(s.level), int64(nodeIdx))
	for i := 0; i < s.p.RandomCands; i++ {
		size := 1 + rng.intn(len(rem))
		pick := append([]topo.DeviceID(nil), rem...)
		for j := len(pick) - 1; j > 0; j-- {
			k := rng.intn(j + 1)
			pick[j], pick[k] = pick[k], pick[j]
		}
		add(Step{Devices: pick[:size]})
	}
	return cands
}

// expansion is one (node, candidate step) evaluation task.
type expansion struct {
	nodeIdx int
	step    Step
	key     string // parentFP | stepKey
}

// Step advances the search one beam level: expand every node, evaluate
// unique expansions across the evaluation pool, finalize terminal
// candidates, and select the next beam. Returns done=true once the beam is
// empty.
func (s *Search) Step() (bool, error) {
	if s.done {
		return true, nil
	}
	if len(s.beam) == 0 {
		s.done = true
		return true, nil
	}

	// Generate and key expansions serially (cheap, deterministic).
	var tasks []expansion
	seen := make(map[string]bool)
	var uniq []expansion
	for i, nd := range s.beam {
		for _, st := range s.candidates(i, nd) {
			key := nd.fp + "|" + st.String()
			tasks = append(tasks, expansion{nodeIdx: i, step: st, key: key})
			if _, inMemo := s.memo[key]; inMemo || seen[key] {
				s.stats.MemoHits++
				continue
			}
			seen[key] = true
			uniq = append(uniq, expansion{nodeIdx: i, step: st, key: key})
		}
	}

	// Every candidate of a node forks the node's one live snapshot from the
	// pool (the snapshot concurrency contract covers it). A node the search
	// expanded itself still has it; one that came out of a checkpoint is
	// decoded here, once.
	for _, ex := range uniq {
		nd := &s.beam[ex.nodeIdx]
		var err error
		if nd.snap, err = s.ev.live(nd.snap, nd.state); err != nil {
			return false, err
		}
	}

	// Evaluate unique expansions on the pool, each into its task's slot,
	// then fold the slots into the memo in task order.
	evaluated := make([]memoEntry, len(uniq))
	if err := runPool(len(uniq), func(i int) (err error) {
		ex := uniq[i]
		evaluated[i], err = s.ev.evalStep(s.beam[ex.nodeIdx].snap, ex.step)
		return err
	}); err != nil {
		return false, err
	}
	for i, ex := range uniq {
		s.memo[ex.key] = evaluated[i]
		s.stats.StepsEvaluated++
	}

	// Assemble children in task order (deterministic).
	var children []node
	var terminals []node // fully deployed: the migration body is still to run
	for _, ex := range tasks {
		me := s.memo[ex.key]
		parent := s.beam[ex.nodeIdx]
		childSched := parent.sched.Clone()
		childSched.Steps = append(childSched.Steps, ex.step.Clone())
		childScore := parent.score.add(me.out, true)
		child := node{sched: childSched, score: childScore, snap: me.snap, state: me.child, fp: me.fp}
		if len(s.remaining(childSched)) == 0 {
			terminals = append(terminals, child)
		} else {
			children = append(children, child)
		}
	}

	// Terminal candidates run the migration body (memoized per final
	// state fingerprint) before scoring.
	migKeys := make(map[string]bool)
	var migUniq []node
	for _, t := range terminals {
		key := t.fp + "|migration"
		if _, inMemo := s.memo[key]; inMemo || migKeys[key] {
			s.stats.MemoHits++
			continue
		}
		migKeys[key] = true
		migUniq = append(migUniq, t)
	}
	migrated := make([]StepOutcome, len(migUniq))
	if err := runPool(len(migUniq), func(i int) error {
		t := migUniq[i]
		snap, err := s.ev.live(t.snap, t.state)
		if err != nil {
			return err
		}
		migrated[i], err = s.ev.evalMigration(snap)
		return err
	}); err != nil {
		return false, err
	}
	for i, t := range migUniq {
		s.memo[t.fp+"|migration"] = memoEntry{out: migrated[i]}
		s.stats.StepsEvaluated++
	}
	for _, t := range terminals {
		me := s.memo[t.fp+"|migration"]
		s.completed = append(s.completed, Candidate{Schedule: t.sched, Score: t.score.add(me.out, false)})
	}

	// Select the next beam: best-first, fingerprint-deduplicated
	// (identical states keep only the cheapest path that reached them).
	sort.SliceStable(children, func(i, j int) bool {
		if c := children[i].score.Cmp(children[j].score); c != 0 {
			return c < 0
		}
		return children[i].sched.String() < children[j].sched.String()
	})
	var next []node
	byFP := make(map[string]bool)
	for _, c := range children {
		if byFP[c.fp] {
			continue
		}
		byFP[c.fp] = true
		next = append(next, c)
		if len(next) == s.p.Beam {
			break
		}
	}
	s.beam = next
	// The level's other states go back to being bytes: only the beam stays
	// live between levels.
	for _, ex := range uniq {
		me := s.memo[ex.key]
		me.snap = nil
		s.memo[ex.key] = me
	}
	s.level++
	s.stats.Levels = s.level
	if len(s.beam) == 0 {
		s.done = true
	}
	return s.done, nil
}

// runPool runs fn(0..n-1) on min(GOMAXPROCS, n) goroutines, inline when that
// is one. fn writes only its own task's slot; the caller folds the slots in
// task order, so the width changes wall-clock and never a result. The first
// error by task index wins.
func runPool(n int, fn func(i int) error) error {
	width := min(runtime.GOMAXPROCS(0), n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BaselineSchedule is the §5.3.2 bottom-up layer sequence for the
// params' intent: one wave per altitude-distance group, farthest first.
func (s *Search) BaselineSchedule() Schedule {
	return FromWaves(s.wavesByDistance(sortedDevices(s.p.Intent)))
}

// scoreSchedule evaluates a full schedule through the shared memo,
// serially. Used for the baseline, `centralium plan score|explain`, and Approver.
func (s *Search) scoreSchedule(sched Schedule) (*Report, error) {
	rep := &Report{Schedule: sched}
	// cur walks the schedule's states; it stays live across consecutive
	// evaluated steps and is decoded again only after a memo hit.
	cur := node{snap: s.root, state: s.base, fp: s.baseFP}
	var score Score
	for _, st := range sched.Steps {
		key := cur.fp + "|" + st.String()
		me, ok := s.memo[key]
		if !ok {
			parent, err := s.ev.live(cur.snap, cur.state)
			if err != nil {
				return nil, err
			}
			if me, err = s.ev.evalStep(parent, st); err != nil {
				return nil, err
			}
			cur.snap, me.snap = me.snap, nil
			s.memo[key] = me
			s.stats.StepsEvaluated++
		} else {
			cur.snap = nil
			s.stats.MemoHits++
		}
		rep.Phases = append(rep.Phases, me.out)
		score = score.add(me.out, true)
		cur.state, cur.fp = me.child, me.fp
	}
	if rem := s.remaining(sched); len(rem) > 0 {
		return nil, fmt.Errorf("planner: schedule leaves %d intent devices undeployed (first: %s)", len(rem), rem[0])
	}
	key := cur.fp + "|migration"
	me, ok := s.memo[key]
	if !ok {
		snap, err := s.ev.live(cur.snap, cur.state)
		if err != nil {
			return nil, err
		}
		out, err := s.ev.evalMigration(snap)
		if err != nil {
			return nil, err
		}
		me = memoEntry{out: out}
		s.memo[key] = me
		s.stats.StepsEvaluated++
	}
	rep.Phases = append(rep.Phases, me.out)
	rep.Total = score.add(me.out, false)
	return rep, nil
}

// ScoreSchedule evaluates one explicit schedule end to end on the base
// snapshot and returns the per-phase breakdown.
func ScoreSchedule(base *snapshot.Snapshot, p Params, sched Schedule) (*Report, error) {
	s, err := NewSearch(base, p)
	if err != nil {
		return nil, err
	}
	return s.scoreSchedule(sched)
}

// Result finalizes the search: the best completed candidate wins unless
// the §5.3.2 baseline dominates it under the guard (longer black-hole
// window, harder funneling, or >10% convergence regression all hand the
// win back to the baseline).
func (s *Search) Result() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("planner: search not finished (call Step until done)")
	}
	baseRep, err := s.scoreSchedule(s.BaselineSchedule())
	if err != nil {
		return nil, fmt.Errorf("planner: baseline: %w", err)
	}
	res := &Result{
		Baseline:      baseRep.Schedule,
		BaselineScore: baseRep.Total,
	}
	s.stats.Completed = len(s.completed)
	if len(s.completed) == 0 {
		res.Winner, res.Score, res.FromBaseline = baseRep.Schedule, baseRep.Total, true
		res.Stats = s.stats
		return res, nil
	}
	best := s.completed[0]
	for _, c := range s.completed[1:] {
		if cmp := c.Score.Cmp(best.Score); cmp < 0 ||
			(cmp == 0 && c.Schedule.String() < best.Schedule.String()) {
			best = c
		}
	}
	if dominated(best.Score, baseRep.Total) {
		res.Winner, res.Score, res.FromBaseline = baseRep.Schedule, baseRep.Total, true
	} else {
		res.Winner, res.Score = best.Schedule, best.Score
	}
	res.Stats = s.stats
	return res, nil
}

// dominated reports that the searched score loses to the baseline on the
// acceptance criteria: more black-hole time, a higher funneling peak, or
// a convergence-time regression beyond 10%.
func dominated(got, baseline Score) bool {
	if got.BlackholeNs > baseline.BlackholeNs {
		return true
	}
	if got.PeakShare > baseline.PeakShare {
		return true
	}
	return 10*got.ConvergeNs > 11*baseline.ConvergeNs
}

// Exhaustive scores every per-device deployment order (batch size 1,
// protection on) and returns the best schedule plus the number of
// schedules scored — the brute-force reference the beam search is
// benchmarked against. Factorial in the intent size; keep it for small
// intents.
func Exhaustive(base *snapshot.Snapshot, p Params) (*Result, int, error) {
	s, err := NewSearch(base, p)
	if err != nil {
		return nil, 0, err
	}
	return exhaustiveOn(s)
}

// exhaustiveOn runs the brute-force sweep on an existing search (sharing
// its memo).
func exhaustiveOn(s *Search) (*Result, int, error) {
	devs := sortedDevices(s.p.Intent)
	var best *Candidate
	count := 0
	var recurse func(prefix []topo.DeviceID, rest []topo.DeviceID) error
	recurse = func(prefix, rest []topo.DeviceID) error {
		if len(rest) == 0 {
			sched := Schedule{}
			for _, d := range prefix {
				sched.Steps = append(sched.Steps, Step{Devices: []topo.DeviceID{d}})
			}
			rep, err := s.scoreSchedule(sched)
			if err != nil {
				return err
			}
			count++
			c := Candidate{Schedule: sched, Score: rep.Total}
			if best == nil || c.Score.Cmp(best.Score) < 0 ||
				(c.Score.Cmp(best.Score) == 0 && c.Schedule.String() < best.Schedule.String()) {
				best = &c
			}
			return nil
		}
		for i := range rest {
			next := append(append([]topo.DeviceID(nil), rest[:i]...), rest[i+1:]...)
			if err := recurse(append(prefix, rest[i]), next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(nil, devs); err != nil {
		return nil, count, err
	}
	baseRep, err := s.scoreSchedule(s.BaselineSchedule())
	if err != nil {
		return nil, count, err
	}
	return &Result{
		Winner: best.Schedule, Score: best.Score,
		Baseline: baseRep.Schedule, BaselineScore: baseRep.Total,
		Stats: s.stats,
	}, count, nil
}

// Approver returns a controller Rollout.Approval hook bound to a planned
// result: a proposed wave schedule is scored on a fork of the same base
// state and rejected when the planner's reference schedule beats it on
// the acceptance criteria. The reference is the searched winner reduced
// to its wave-expressible form (a Rollout carries only waves, not the
// planner's per-step protection options), guard-checked against the
// §5.3.2 baseline — so a proposal is only ever rejected in favor of a
// schedule the controller could actually run. This is what lets
// qualify.Gate demand a planner-approved schedule in front of a live
// push.
func Approver(base *snapshot.Snapshot, p Params) func(waves [][]topo.DeviceID) error {
	var (
		mu       sync.Mutex
		s        *Search
		refSched Schedule
		refScore Score
		initErr  error
	)
	reference := func() error {
		var err error
		if s, err = NewSearch(base, p); err != nil {
			return err
		}
		if _, err = s.Drive(context.Background(), 0, nil); err != nil {
			return err
		}
		res, err := s.Result()
		if err != nil {
			return err
		}
		refSched = FromWaves(res.Winner.Waves())
		rep, err := s.scoreSchedule(refSched)
		if err != nil {
			return err
		}
		refScore = rep.Total
		if dominated(refScore, res.BaselineScore) {
			refSched, refScore = res.Baseline, res.BaselineScore
		}
		return nil
	}
	return func(waves [][]topo.DeviceID) error {
		// One call at a time: every call scores through the one search's
		// memo, which is not safe for concurrent use.
		mu.Lock()
		defer mu.Unlock()
		if s == nil && initErr == nil {
			initErr = reference()
		}
		if initErr != nil {
			return fmt.Errorf("planner: approver: %w", initErr)
		}
		proposed := FromWaves(waves)
		rep, err := s.scoreSchedule(proposed)
		if err != nil {
			return fmt.Errorf("planner: approver: score proposed schedule: %w", err)
		}
		if dominated(rep.Total, refScore) {
			return fmt.Errorf("planner: schedule %q not approved (%s); planner prefers %q (%s)",
				proposed, rep.Total, refSched, refScore)
		}
		return nil
	}
}

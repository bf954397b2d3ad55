package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload's set-up gets from the command line.
type env struct {
	seed  int64
	quick bool
	// tmp is the scratch directory (inside the out directory) for data
	// directories of durable daemons.
	tmp string
	// tr is nil on untraced runs.
	tr *tracer
	// dirSeq numbers the data directories made under tmp.
	dirSeq int
}

// rng returns a generator for one named input stream of this seed, so
// that adding a draw to one stream never shifts another.
func (e *env) rng(stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", stream, e.seed)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

func (e *env) newDir() (string, error) {
	e.dirSeq++
	dir := filepath.Join(e.tmp, fmt.Sprintf("data-%d", e.dirSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// opResult is what one op hands back for checking and accounting.
type opResult struct {
	// digest must be identical every time the same op of the op list runs
	// (every round replays the same inputs on a deterministic system).
	digest string
	// events and virtualNs are the simulated work the op did, where the
	// harness can see it.
	events    int64
	virtualNs int64
	// reenactNs is the time the op spent, on a traced run, repeating
	// itself at library level; it is not part of the op's latency.
	reenactNs int64
}

// instance is one set-up of a workload: a fixed op list and the closures
// that run it. before and after are outside the timed region of a round.
type instance struct {
	// classes[i] is the request class of op i; classOrder lists the
	// classes cheapest first (nominal cost), for the rank assertion.
	classes    []string
	classOrder []string

	before func() error
	run    func(i int) (opResult, error)
	// after returns how many of the round's ops its checks failed
	// (fingerprints, restart replays), beyond what run already reported.
	after func() (failed int, err error)
	// verify is the once-per-run oracle check, untimed.
	verify func() error
	close  func()

	// counters is read after the measured rounds by the traced run.
	counters func() map[string]float64
}

// workload is one named input set and the layer it is meant to load.
type workload struct {
	name   string
	why    string
	layers []string
	setup  func(e *env) (*instance, error)
}

// round is the measurements of one replay of the op list.
type round struct {
	wallS     float64
	latMs     []float64
	mallocs   uint64
	bytes     uint64
	liveHeap  uint64
	spinMs    float64
	cpuS      float64
	stealS    float64
	failed    int
	events    int64
	virtualNs int64
}

// spinTable is the reference kernel's working set: 32 MB, several times
// the last-level cache share a guest gets. It is mapped outside the Go
// heap so it is in no heap metric.
var (
	spinTable = func() []byte {
		mem, err := syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return make([]byte, 32<<20)
		}
		return mem
	}()
	spinSink uint64
)

// spin is the fixed reference kernel: the same work every time — 50k
// dependent read-modify-writes at pseudo-random places in a 32 MB table —
// so its time says how fast the box was just then. It walks memory
// because that is what this box's slow phases slow down: over a
// two-minute scratch run the cold converge drifted 0.68 → 0.80 → 0.70 s
// while a register-only loop moved 4% and a memory walk 20%.
func spin() float64 {
	x := uint64(88172645463325252)
	var sum uint64
	t0 := time.Now()
	for i := 0; i < 50_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x + sum) % uint64(len(spinTable))
		sum += uint64(spinTable[j])
		spinTable[j] = byte(sum + x)
	}
	spinSink = sum
	return float64(time.Since(t0)) / 1e6
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the time the hypervisor ran someone else on this
// guest's CPUs, from the first line of /proc/stat (USER_HZ ticks).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runRound replays the op list once. ref, when non-nil, holds the digest
// each op produced in the reference round; a different digest is a failed
// output check. The returned digests are this round's.
func runRound(inst *instance, tr *tracer, ref []string) (round, []string, error) {
	var r round
	n := len(inst.classes)
	r.latMs = make([]float64, n)
	digests := make([]string, n)
	if inst.before != nil {
		if err := inst.before(); err != nil {
			return r, nil, fmt.Errorf("before round: %w", err)
		}
	}
	r.spinMs = spin()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	start := time.Now()
	var reenact int64
	for i := 0; i < n; i++ {
		tr.nextOp(inst.classes[i])
		end := tr.span("harness.op")
		t0 := time.Now()
		res, err := inst.run(i)
		r.latMs[i] = float64(int64(time.Since(t0))-res.reenactNs) / 1e6
		end()
		reenact += res.reenactNs
		digests[i] = res.digest
		r.events += res.events
		r.virtualNs += res.virtualNs
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "op %d (%s) failed: %v\n", i, inst.classes[i], err)
		case ref != nil && ref[i] != res.digest:
			r.failed++
			fmt.Fprintf(os.Stderr, "op %d (%s): output differs from the reference round\n", i, inst.classes[i])
		}
	}
	r.wallS = float64(int64(time.Since(start))-reenact) / 1e9
	r.cpuS = cpuSeconds() - cpu0
	r.stealS = stealSeconds() - steal0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	// Live heap is taken while the round's state (the converged fabric,
	// the daemon and its store) is still referenced: that is the memory
	// the system needs to hold, not what is left once it is dropped.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeap = m1.HeapAlloc
	if inst.after != nil {
		failed, err := inst.after()
		if err != nil {
			return r, nil, fmt.Errorf("after round: %w", err)
		}
		r.failed += failed
	}
	if r.failed > n {
		r.failed = n
	}
	return r, digests, nil
}

// checkRanks is the start-up assertion of the mix-weight rule: the p50
// and p95 ranks of a round must fall inside one request class, at least
// minRankMargin of the round away from the next class, so the reported
// percentile is one class's latency in every round and never the gap
// between two.
//
// The margin is only demanded of rounds with at least marginMinOps ops
// (the two request-serving workloads). A round of a handful of ops has no
// percentile to speak of: its p50 and p95 are simply the nearest-rank op,
// whose class is still printed.
const (
	minRankMargin = 0.02
	marginMinOps  = 200
)

func checkRanks(inst *instance) (p50Class, p95Class string, err error) {
	for _, p := range []float64{50, 95} {
		class, margin := classAtRank(inst.classes, inst.classOrder, p)
		if class == "" {
			return "", "", fmt.Errorf("rank check: an op class is missing from classOrder")
		}
		if len(inst.classes) >= marginMinOps && margin < minRankMargin {
			return "", "", fmt.Errorf("rank check: p%.0f falls %.3f of a round from the edge of class %q (need %.2f): reweight the mix", p, margin, class, minRankMargin)
		}
		if p == 50 {
			p50Class = class
		} else {
			p95Class = class
		}
	}
	return p50Class, p95Class, nil
}

// outcome is everything one untraced run measured.
type outcome struct {
	classes     []string
	rounds      []round
	opsPerRound int
	setupS      []float64
	firstSetupS float64
	attempted   int
	failed      int
	digest      string
	p50Class    string
	p95Class    string
	gc          gcDelta
}

// gcDelta is runtime/metrics read around the measured rounds.
type gcDelta struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcDelta {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var d gcDelta
	if s[0].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		d.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		d.cycles = s[2].Value.Uint64()
	}
	return d
}

func (a gcDelta) sub(b gcDelta) gcDelta {
	return gcDelta{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles}
}

// prepare sets the workload up `setups` times, each time followed by the
// discarded warm-up round, and keeps the last instance. The warm-up
// round's digests become the reference every measured round is checked
// against.
func prepare(w *workload, e *env, setups int) (*instance, []string, *outcome, error) {
	out := &outcome{}
	var inst *instance
	var ref []string
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		var warm round
		warm, ref, err = runRound(inst, nil, nil)
		if err != nil {
			inst.close()
			return nil, nil, nil, fmt.Errorf("warm-up round: %w", err)
		}
		if warm.failed > 0 {
			inst.close()
			return nil, nil, nil, fmt.Errorf("warm-up round: %d ops failed", warm.failed)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		if k == 0 {
			out.firstSetupS = time.Since(procStart).Seconds()
		}
		if k < setups-1 {
			inst.close()
		}
	}
	out.opsPerRound = len(inst.classes)
	out.classes = inst.classes
	var err error
	if out.p50Class, out.p95Class, err = checkRanks(inst); err != nil {
		inst.close()
		return nil, nil, nil, err
	}
	if inst.verify != nil {
		if err := inst.verify(); err != nil {
			inst.close()
			return nil, nil, nil, fmt.Errorf("oracle check: %w", err)
		}
	}
	h := sha256.New()
	for _, d := range ref {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return inst, ref, out, nil
}

// measure replays the op list until `seconds` of wall time have passed
// (timed and untimed parts of the rounds together, so a run's length is
// what the caller asked for) and at least minRounds rounds are in.
func measure(inst *instance, ref []string, out *outcome, tr *tracer, seconds float64, minRounds, maxRounds int) error {
	gc0 := readGC()
	start := time.Now()
	for len(out.rounds) < maxRounds {
		if len(out.rounds) >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		r, _, err := runRound(inst, tr, ref)
		if err != nil {
			return err
		}
		out.rounds = append(out.rounds, r)
		out.attempted += out.opsPerRound
		out.failed += r.failed
	}
	out.gc = readGC().sub(gc0)
	return nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the bounded metrics from the measured rounds. Every
// timing is computed per round and reported as the quiet-round value.
func (o *outcome) endToEnd() []metric {
	n := float64(o.opsPerRound)
	var wall, p50, p95 []float64
	var mallocs, bytes, live uint64
	for _, r := range o.rounds {
		wall = append(wall, r.wallS)
		p50 = append(p50, roundPercentile(r.latMs, 50))
		p95 = append(p95, roundPercentile(r.latMs, 95))
		mallocs += r.mallocs
		bytes += r.bytes
		if r.liveHeap > live {
			live = r.liveHeap
		}
	}
	ops := n * float64(len(o.rounds))
	return []metric{
		{"setup_s", median(o.setupS), "s"},
		{"ops_per_s", n / quiet(wall), "1/s"},
		{"op_p50_ms", quiet(p50), "ms"},
		{"op_p95_ms", quiet(p95), "ms"},
		{"allocs_per_op", float64(mallocs) / ops, "count"},
		{"alloc_kb_per_op", float64(bytes) / 1024 / ops, "KB"},
		{"live_heap_mb", float64(live) / (1 << 20), "MB"},
	}
}

// classLatency returns, per request class, the quiet-round value of the
// per-round median latency of that class's ops.
func (o *outcome) classLatency() map[string]float64 {
	perRound := make(map[string][]float64)
	for _, r := range o.rounds {
		byClass := make(map[string][]float64)
		for i, ms := range r.latMs {
			byClass[o.classes[i]] = append(byClass[o.classes[i]], ms)
		}
		for c, lat := range byClass {
			perRound[c] = append(perRound[c], median(lat))
		}
	}
	out := make(map[string]float64)
	for c, v := range perRound {
		out[c] = quiet(v)
	}
	return out
}

// diagnostics are printed beside the bounded metrics and carry no bound:
// the median and p90 across rounds, and the noise indicators.
func (o *outcome) diagnostics() []metric {
	n := float64(o.opsPerRound)
	var wall, spinMs []float64
	var cpu float64
	for _, r := range o.rounds {
		wall = append(wall, r.wallS)
		spinMs = append(spinMs, r.spinMs)
		cpu += r.cpuS
	}
	ops := n * float64(len(o.rounds))
	return []metric{
		{"rounds", float64(len(o.rounds)), "count"},
		{"ops_per_round", n, "count"},
		{"ops_per_s.median_round", n / median(wall), "1/s"},
		{"ops_per_s.p90_round", n / percentile(wall, 90), "1/s"},
		{"rounds.wall_p50_over_p10", median(wall) / quiet(wall), "ratio"},
		{"machine.spin_ms", median(spinMs), "ms"},
		{"machine.spin_ms.max", percentile(spinMs, 100), "ms"},
		{"proc.cpu_ms_per_op", cpu * 1e3 / ops, "ms"},
		{"proc.peak_rss_mb", peakRSSMB(), "MB"},
		{"setup_first_s", o.firstSetupS, "s"},
		{"failed_frac", float64(o.failed) / float64(o.attempted), "ratio"},
	}
}

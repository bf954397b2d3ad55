package main

// The CLI under test, in-process: every subcommand at its smallest scale
// with stdout, stderr and the exit status asserted; the canonical outputs
// under results/ reproduced byte for byte; the README's CLI reference held
// equal to `centralium help`; and TestOneFrontDoor, the lint that keeps
// this the one operator binary with one flag vocabulary.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"centralium/internal/experiments"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/telemetry"
)

// invoke runs one command line (without the program name) in-process.
func invoke(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// mustRun invokes and fails the test unless the exit status is want.
func mustRun(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := invoke(args...)
	if code != want {
		t.Fatalf("centralium %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), code, want, stdout, stderr)
	}
	return stdout, stderr
}

const fig10TopDown = "fa.0,fa.1 > ssw.pl0.0,ssw.pl0.1 > fsw.pod0.0,fsw.pod0.1"

// TestCLITable is one row per subcommand (and per way of getting one
// wrong). out and errOut are substrings the streams must carry, in order;
// an empty want means the stream must be empty.
func TestCLITable(t *testing.T) {
	rows := []struct {
		name   string
		args   []string
		code   int
		out    []string
		errOut []string
	}{
		{name: "stack", args: []string{"stack", "-app", "equalize", "-pods", "1"}, out: []string{
			"fabric: 26 devices, 56 links, converged\n",
			"nsdb: 2 replicas, leader nsdb-0\n",
			"agents: 4 tasks sharding 24 switches\n",
			"app \"equalize\": generated RPAs for 16 switches (336 LOC total)\n",
			"rollout: 16 deployments, 0 stragglers, health checks passed\n",
			"traffic: delivered 100.0%, max link utilization 0.250\n"}},
		{name: "stack/protect", args: []string{"stack", "-app", "protect", "-pods", "1"}, out: []string{"health checks passed"}},
		{name: "stack/te", args: []string{"stack", "-app", "te", "-pods", "1"}, out: []string{"health checks passed"}},
		{name: "stack/filter", args: []string{"stack", "-app", "filter", "-pods", "1"}, out: []string{"health checks passed"}},
		{name: "stack/unknown-app", args: []string{"stack", "-app", "nope", "-pods", "1"}, code: 2,
			errOut: []string{`-app "nope": want equalize | protect | te | filter`, "usage: centralium stack"}},

		{name: "migrate/expansion", args: []string{"migrate", "-scenario", "expansion"}, out: []string{
			"scenario 1 (topology expansion), rpa=false\n",
			"  peak aggregation-device share: 1.000 (fair 0.125)\n",
			"  final share after convergence: 0.250\n",
			"  events: 110\n"}},
		{name: "migrate/decommission", args: []string{"migrate", "-scenario", "decommission", "-rpa"}, out: []string{
			"scenario 2 (decommission), rpa=true\n", "  peak blackholed fraction: 0.000\n"}},
		{name: "migrate/nhg", args: []string{"migrate", "-scenario", "nhg", "-rpa", "-prefixes", "32"}, out: []string{
			"scenario 3 (WCMP convergence), rpa=true\n",
			"  peak next-hop groups on DU: 1 (steady 1)\n",
			"  hardware overflows: 0, group churn: 0\n",
			"  events: 5890\n"}},
		{name: "migrate/plan", args: []string{"migrate", "-plan"}, out: []string{"without RPA", "with RPA", "generated RPA:"}},
		{name: "migrate/number-is-not-a-name", args: []string{"migrate", "-scenario", "1"}, code: 2,
			errOut: []string{`-scenario "1": want one of expansion | decommission | nhg`, "usage: centralium migrate"}},

		{name: "rpa/show", args: []string{"rpa", "show", "-scenario", "mesh"}, out: []string{
			"device ssw.pl0.0  (RPA config version 1)\n",
			"  path-selection \"protect-BACKBONE_DEFAULT_ROUTE\"  destination=community:BACKBONE_DEFAULT_ROUTE\n",
			"    native-min-next-hop=75% keep-fib-warm=true expected=2\n"}},
		{name: "rpa/explain", args: []string{"rpa", "explain", "-scenario", "fig9", "-prefix", "198.51.100.0/24"}, out: []string{
			"device r6  prefix 198.51.100.0/24\n", `governing statement: "balance-r2-r5"`, `=> ACTIVE: path set "via-r2-r5"`}},
		{name: "rpa/fib", args: []string{"rpa", "fib", "-scenario", "expansion", "-device", "fav2.0"}, out: []string{
			"device fav2.0  FIB: 1 prefixes, 1 next-hop groups (peak 1, limit 4096)\n",
			"  0.0.0.0/0          -> eb.0(w1) eb.1(w1)\n"}},
		{name: "rpa/no-mode", args: []string{"rpa", "-scenario", "mesh"}, code: 2,
			errOut: []string{"want show | explain | fib before the flags", "usage: centralium rpa"}},
		{name: "rpa/unknown-scenario", args: []string{"rpa", "show", "-scenario", "fig10"}, code: 2,
			errOut: []string{`-scenario "fig10": want one of expansion | mesh | fig9`}},
		{name: "rpa/bad-prefix", args: []string{"rpa", "explain", "-scenario", "mesh", "-prefix", "nope"}, code: 2,
			errOut: []string{"-prefix:"}},

		{name: "qualify/suite", args: []string{"qualify", "-suite", "equalization"}, out: []string{
			"qualification \"equalization (bottom-up)\": PASS (45 events)\n"}},
		{name: "qualify/unknown-suite", args: []string{"qualify", "-suite", "nope"}, code: 2,
			errOut: []string{`-suite "nope": want one of equalization | equalization-topdown | protection`}},

		{name: "tables/list", args: []string{"tables", "-list"}, out: []string{"chaos ", "fig10 ", "table3 "}},
		{name: "tables/exp", args: []string{"tables", "-exp", "fig10", "-seed", "7"}, out: []string{
			"Figure 10", "sequenced bottom-up (§5.3.2)               0.500        0.500\n"}},
		{name: "tables/none-picked", args: []string{"tables"}, code: 2, errOut: []string{"pick -list, -exp <id> or -all", "usage: centralium tables"}},
		{name: "tables/unknown-exp", args: []string{"tables", "-exp", "nope"}, code: 1, errOut: []string{`unknown experiment "nope"`}},

		{name: "fabsim/chaos", args: []string{"fabsim", "-chaos", "-scenario", "decommission", "-arm", "rpa", "-seed", "7", "-chaos-log"}, out: []string{
			"chaos decommission arm=rpa seed=7\n", "continuous: 0 raw violations, 0 effective (outside fault grace)\n", "--- canonical log ---\n"}},
		{name: "fabsim/chaos-unhealthy", args: []string{"fabsim", "-chaos", "-scenario", "pod-drain", "-seed", "1"}, code: 1, out: []string{
			"chaos pod-drain arm=native seed=1\n", "continuous: 540 raw violations, 68 effective (outside fault grace)\n"}},
		{name: "fabsim/chaos-unknown-scenario", args: []string{"fabsim", "-chaos", "-scenario", "fig10"}, code: 2,
			errOut: []string{`-scenario "fig10": want one of decommission | pod-drain`}},
		{name: "fabsim/chaos-unknown-arm", args: []string{"fabsim", "-chaos", "-scenario", "pod-drain", "-arm", "x"}, code: 2,
			errOut: []string{`-arm "x": want native | rpa`}},
		{name: "fabsim/missing-topology", args: []string{"fabsim", "-load", "/nonexistent/topo.json"}, code: 1,
			errOut: []string{"centralium fabsim: open /nonexistent/topo.json"}},

		{name: "plan/scenarios", args: []string{"plan", "scenarios"}, out: []string{"fig10\ndecommission\npod-drain\n"}},
		{name: "plan/score", args: []string{"plan", "score", "-scenario", "fig10", "-schedule", fig10TopDown}, out: []string{
			"schedule: " + fig10TopDown + "\n",
			"score:    blackhole=0.00ms peak-share=1.000 converge=48.18ms nhg=1 churn=53 alerts=0 steps=3\n"}},
		{name: "plan/explain", args: []string{"plan", "explain", "-scenario", "fig10", "-seed", "1", "-schedule", fig10TopDown}, out: []string{
			"fa.0,fa.1                                         1.000      0.00ms    26.67ms      1      36       0\n",
			"bottom-up baseline: fsw.pod0.0,fsw.pod0.1 > ssw.pl0.0,ssw.pl0.1 > fa.0,fa.1\n",
			"verdict: worse than the bottom-up baseline.\n"}},
		// The violating schedule under a tight envelope: the guard rolls
		// back, retries once degraded, quarantines, and prints the incident.
		{name: "plan/score-guard", args: []string{"plan", "score", "-scenario", "fig10", "-schedule", fig10TopDown,
			"-guard", "-envelope", "share=0.6", "-max-retries", "1"}, out: []string{
			"guard guard-fig10-seed42: 3 wave(s), envelope [share<=0.600], max retries 1\n",
			"wave 0 attempt 0: VIOLATION share [fa.1]: peak share 1.000 > limit 0.600\n",
			"wave 0: retry budget exhausted; quarantine [fa.1]; abort\n",
			"guard: aborted (0/3 waves, 1 retried attempt(s), 2 rollback(s))\n",
			"incident: wave 0 attempt 1, quarantined [fa.1]\n",
			"  share [fa.1]: peak share 1.000 > limit 0.600\n",
			"final state: 8899b3eb0a14ea3f9d1327d53f5c33afc89876fdaeb29541d659e6dcd30eae8a\n"}},
		{name: "plan/no-schedule", args: []string{"plan", "score", "-scenario", "fig10"}, code: 2, errOut: []string{"score needs -schedule"}},
		{name: "plan/bad-list", args: []string{"plan", "plan", "-scenario", "fig10", "-batch", "1,x"}, code: 2, errOut: []string{`invalid value "1,x" for flag -batch: bad integer "x" in list`, "usage: centralium plan"}},
		{name: "plan/bad-envelope", args: []string{"plan", "score", "-scenario", "fig10", "-schedule", fig10TopDown, "-guard", "-envelope", "nope"}, code: 2,
			errOut: []string{"-envelope:"}},
		{name: "plan/unknown-mode", args: []string{"plan", "bogus"}, code: 2, errOut: []string{`want plan | score | explain | scenarios before the flags, got "bogus"`}},
		{name: "plan/missing-checkpoint", args: []string{"plan", "plan", "-scenario", "fig10", "-resume", "/nonexistent/s.ckpt"}, code: 1,
			errOut: []string{"centralium plan: open /nonexistent/s.ckpt"}},

		{name: "help", args: []string{"help"}, out: []string{"usage: centralium <subcommand> [flags]\n", "  tables ", "-seed "}},
		{name: "sub-help", args: []string{"tables", "-h"}, errOut: []string{"usage: centralium tables -list | -exp <id> | -all\n", "-seed int"}},
		{name: "no-args", args: nil, code: 2, errOut: []string{"usage: centralium <subcommand> [flags]\n"}},
		{name: "unknown-subcommand", args: []string{"benchtab", "-all"}, code: 2,
			errOut: []string{`centralium: unknown subcommand "benchtab"`, "usage: centralium <subcommand> [flags]\n"}},
		{name: "unknown-flag", args: []string{"tables", "-warm"}, code: 2,
			errOut: []string{"flag provided but not defined: -warm\n", "usage: centralium tables"}},
		{name: "missing-value", args: []string{"qualify", "-seed"}, code: 2,
			errOut: []string{"flag needs an argument: -seed\n", "usage: centralium qualify"}},
		{name: "stray-argument", args: []string{"qualify", "-all", "extra"}, code: 2, errOut: []string{`unexpected argument "extra"`}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr := mustRun(t, row.code, row.args...)
			for _, stream := range []struct {
				name, got string
				want      []string
			}{{"stdout", stdout, row.out}, {"stderr", stderr, row.errOut}} {
				if len(stream.want) == 0 && stream.got != "" {
					t.Errorf("%s should be empty, got:\n%s", stream.name, stream.got)
				}
				rest := stream.got
				for _, want := range stream.want {
					i := strings.Index(rest, want)
					if i < 0 {
						t.Fatalf("%s lacks %q (in order); all of it:\n%s", stream.name, want, stream.got)
					}
					rest = rest[i+len(want):]
				}
			}
		})
	}
}

// sections cuts the concatenated output of `tables -all` into one piece
// per experiment, keyed by ID, at the experiments' title lines.
func sections(t *testing.T, text string) map[string]string {
	t.Helper()
	all := experiments.All()
	starts := make([]int, len(all)+1)
	starts[len(all)] = len(text)
	for i, e := range all {
		head := e.Title + "\n" + strings.Repeat("=", len(e.Title)) + "\n"
		at := strings.Index(text, head)
		if at < 0 || (i > 0 && at < starts[i-1]) {
			t.Fatalf("no section for %s (title %q) in order", e.ID, e.Title)
		}
		starts[i] = at
	}
	out := make(map[string]string, len(all))
	for i, e := range all {
		out[e.ID] = text[starts[i]:starts[i+1]]
	}
	return out
}

// TestTablesMatchCanonical: `tables -all -seed 42` reproduces
// results/benchtab_seed42.txt section by section. The four experiments
// that print wall-clock measurements differ run to run and are only
// checked for presence; the other sixteen must be byte-equal.
func TestTablesMatchCanonical(t *testing.T) {
	wallClock := map[string]bool{"fig11": true, "fig12": true, "sweep-scale": true, "table2": true}
	golden, err := os.ReadFile("../../results/benchtab_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := mustRun(t, 0, "tables", "-all", "-seed", "42")
	if stderr != "" {
		t.Errorf("stderr: %s", stderr)
	}
	got, want := sections(t, stdout), sections(t, string(golden))
	checked := 0
	for _, e := range experiments.All() {
		if wallClock[e.ID] {
			continue
		}
		checked++
		if got[e.ID] != want[e.ID] {
			t.Errorf("%s differs from results/benchtab_seed42.txt\ngot:\n%s\nwant:\n%s", e.ID, got[e.ID], want[e.ID])
		}
	}
	if checked != 16 {
		t.Errorf("compared %d deterministic experiments, want 16 (a new experiment needs a line in the canonical file)", checked)
	}
}

// TestQualifyMatchesCanonical: `qualify -all -seed 42` is
// results/qualify_seed42.txt, and exits 1 because the Figure 10 hazard
// suite is there to fail.
func TestQualifyMatchesCanonical(t *testing.T) {
	golden, err := os.ReadFile("../../results/qualify_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := mustRun(t, 1, "qualify", "-all", "-seed", "42")
	if stdout != string(golden) {
		t.Errorf("qualify -all differs from results/qualify_seed42.txt\ngot:\n%s\nwant:\n%s", stdout, golden)
	}
	if stderr != "" {
		t.Errorf("stderr: %s", stderr)
	}
}

func TestTablesJSON(t *testing.T) {
	stdout, _ := mustRun(t, 0, "tables", "-exp", "fig4", "-json", "-seed", "7")
	var rep experiments.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("not one JSON report: %v\n%s", err, stdout)
	}
	if rep.ID != "fig4" || rep.Seed != 7 || len(rep.Rows) == 0 || rep.Output == "" {
		t.Errorf("report incomplete: %+v", rep)
	}
}

// TestFabsimSnapshotRoundTrip: a saved snapshot restores to the state the
// saving process reported, and its forks are byte-identical; a topology
// saved as JSON loads back to the same fabric.
func TestFabsimSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csnp, topoJSON := filepath.Join(dir, "state.csnp"), filepath.Join(dir, "topo.json")

	saved, _ := mustRun(t, 0, "fabsim", "-pods", "1", "-seed", "7", "-save-snapshot", csnp)
	m := regexp.MustCompile(`(?s)(fleet: .*max link util [0-9.]+\n)\nsnapshot: wrote \S+ \((\d+) bytes\)\n$`).FindStringSubmatch(saved)
	if m == nil {
		t.Fatalf("no fleet report and snapshot line:\n%s", saved)
	}
	report, size := m[1], m[2]
	restored, _ := mustRun(t, 0, "fabsim", "-snapshot", csnp, "-fork", "3", "-verbose")
	for _, want := range []string{
		"restored " + csnp + ": 26 devices, 56 links, virtual time ",
		"forked 3 independent copies: state fingerprints identical (" + size + " bytes each)\n",
		report,
		"per-device default-route next hops:\n",
	} {
		if !strings.Contains(restored, want) {
			t.Errorf("restore lacks %q:\n%s", want, restored)
		}
	}

	mustRun(t, 0, "fabsim", "-pods", "1", "-save", topoJSON)
	loaded, _ := mustRun(t, 0, "fabsim", "-load", topoJSON, "-seed", "7", "-rack-prefixes")
	if !strings.Contains(loaded, report) || !strings.Contains(loaded, "east-west: ") {
		t.Errorf("loaded topology reports differently from the built one:\n%s", loaded)
	}
}

// TestFabsimChaosReplay: an unhealthy run drops a snapshot into
// -snapshot-dir and -replay reproduces the run from that file alone.
func TestFabsimChaosReplay(t *testing.T) {
	dir := t.TempDir()
	first, _ := mustRun(t, 1, "fabsim", "-chaos", "-scenario", "pod-drain", "-seed", "1", "-snapshot-dir", dir)
	file := filepath.Join(dir, "chaos-pod-drain-native-seed1.csnp")
	hint := "snapshot: " + file + " (replay with centralium fabsim -replay " + file + ")\n"
	if !strings.HasSuffix(first, hint) {
		t.Fatalf("no replay hint:\n%s", first)
	}
	replayed, _ := mustRun(t, 1, "fabsim", "-replay", file)
	if want := strings.TrimSuffix(first, hint); replayed != want {
		t.Errorf("replay diverged\ngot:\n%s\nwant:\n%s", replayed, want)
	}
}

// TestPlanCheckpointResume: the CLI's search prints the winner
// planner.Plan returns, writes a checkpoint a second invocation resumes to
// the same report, and journals to -data-dir so a rerun resumes there.
func TestPlanCheckpointResume(t *testing.T) {
	snap, p, err := planner.ScenarioSetup("fig10", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SearchBare, p.BatchSizes = true, []int{1, 2}
	res, err := planner.Plan(snap, p)
	if err != nil {
		t.Fatal(err)
	}
	winner := fmt.Sprintf("winner:    %s\n           %s\n", res.Winner, res.Score)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "search.ckpt")
	shape := []string{"plan", "plan", "-scenario", "fig10", "-seed", "1", "-bare", "-batch", "1,2"}
	first, _ := mustRun(t, 0, append(shape, "-checkpoint", ckpt)...)
	if !strings.HasPrefix(first, winner) {
		t.Errorf("CLI winner is not planner.Plan's\ngot:\n%s\nwant prefix:\n%s", first, winner)
	}
	resumed, _ := mustRun(t, 0, append(shape, "-resume", ckpt)...)
	if resumed != first {
		t.Errorf("resumed report differs\ngot:\n%s\nwant:\n%s", resumed, first)
	}

	journaled := append(shape, "-data-dir", filepath.Join(dir, "data"))
	if out, _ := mustRun(t, 0, journaled...); out != first {
		t.Errorf("journaled search reports differently:\n%s", out)
	}
	again, _ := mustRun(t, 0, journaled...)
	if note, rest, _ := strings.Cut(again, "\n"); !strings.HasPrefix(note, "resuming plan-fig10-seed1 from journaled level ") || rest != first {
		t.Errorf("rerun on the data dir did not resume:\n%s", again)
	}

	// A guarded execution journals too: the rerun replays its verdict — an
	// aborted one its incident, rebuilt from the terminal record.
	for _, tc := range []struct{ name, want string }{
		{"clean", "guard: completed"},
		{"aborted", "incident: wave 0 attempt 1, quarantined [fa.1]\n"},
	} {
		guarded := []string{"plan", "score", "-scenario", "fig10", "-schedule", fig10TopDown, "-guard", "-data-dir", filepath.Join(dir, "guard-"+tc.name)}
		if tc.name == "aborted" {
			guarded = append(guarded, "-envelope", "share=0.6", "-max-retries", "1")
		}
		verdict, _ := mustRun(t, 0, guarded...)
		replay, _ := mustRun(t, 0, guarded...)
		if !strings.Contains(verdict, tc.want) ||
			!strings.Contains(replay, "resuming guarded execution guard-fig10-seed42 from journaled checkpoint\n") ||
			!strings.HasSuffix(replay, verdict[strings.Index(verdict, "guard: "):]) {
			t.Errorf("%s guarded rerun did not replay the verdict\nfirst:\n%s\nrerun:\n%s", tc.name, verdict, replay)
		}
	}
}

// TestBmptail feeds the station from an in-process exporter over TCP: it
// announces its address on stderr, prints what arrives, and exits 0 on its
// own after -count events.
func TestBmptail(t *testing.T) {
	const count = 100
	errR, errW := io.Pipe()
	var stdout bytes.Buffer
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"bmptail", "-listen", "127.0.0.1:0", "-count", fmt.Sprint(count)}, &stdout, errW)
		errW.Close()
	}()

	lines := bufio.NewReader(errR)
	first, err := lines.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "bmptail: listening on ")
	if err != nil || !ok {
		t.Fatalf("no listening line on stderr: %q, %v", first, err)
	}
	summary := make(chan string, 1)
	go func() {
		rest, _ := io.ReadAll(lines)
		summary <- string(rest)
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exp, err := telemetry.NewExporter(conn, "fig4-native")
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 4 decommission emits well over count events; the station
	// hanging up mid-stream only makes the exporter's writes fail.
	migrate.RunScenario2(migrate.Scenario2Params{Seed: 7, Tap: exp})
	exp.Close()

	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit %d, want 0", c)
		}
	case <-time.After(time.Minute):
		t.Fatal("bmptail did not exit after -count events")
	}
	if n := strings.Count(stdout.String(), "\n"); n < count {
		t.Errorf("printed %d lines, want at least %d events:\n%s", n, count, stdout.String())
	}
	if !strings.Contains(stdout.String(), " adj-rib-in     fig4-native update 0.0.0.0/0 path=[") {
		t.Errorf("no route update among the first %d events:\n%s", count, stdout.String())
	}
	if s := <-summary; !regexp.MustCompile(`^bmptail: \d+ events from 1 device\(s\), \d+ alert\(s\)\n$`).MatchString(s) {
		t.Errorf("closing summary on stderr = %q", s)
	}
}

// TestReadmeCarriesHelp: the CLI reference block in README.md is
// `centralium help`, verbatim.
func TestReadmeCarriesHelp(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const open = "<!-- centralium help -->\n```text\n"
	_, after, ok := strings.Cut(string(readme), open)
	block, _, closed := strings.Cut(after, "```\n")
	if !ok || !closed {
		t.Fatalf("README.md has no %q block", open)
	}
	if help, _ := mustRun(t, 0, "help"); block != help {
		t.Errorf("README.md's CLI reference is stale; paste `centralium help`:\n%s", help)
	}
}

// TestOneFrontDoor keeps the operator CLI one binary with one vocabulary:
// cmd/ holds exactly centralium and centraliumd; inside cmd/centralium
// only func main calls os.Exit; a flag name that two subcommands define
// has one type, one default and one usage string; and a flag name that
// centraliumd defines too has the same type and default there, read from
// its source.
func TestOneFrontDoor(t *testing.T) {
	dirs, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(fset, filepath.Join("..", d.Name()), nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if _, isMain := pkgs["main"]; isMain && d.Name() != "centralium" && d.Name() != "centraliumd" {
			t.Errorf("cmd/%s is a package main: a new tool is a subcommand of cmd/centralium, not a binary", d.Name())
		}
	}

	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	exits := 0
	for _, file := range pkgs["main"].Files {
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Exit" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" {
					return true
				}
				exits++
				if fn == nil || fn.Name.Name != "main" || fn.Recv != nil {
					t.Errorf("%s: os.Exit outside func main; return an error (usagef, errFailed) to the dispatcher", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
	if exits != 1 {
		t.Errorf("%d os.Exit sites in cmd/centralium, want main's one", exits)
	}

	type def struct{ typ, deflt, usage, sub string }
	seen := map[string]def{}
	for i := range commands {
		c := &commands[i]
		fs, _ := c.flagSet(io.Discard)
		fs.VisitAll(func(f *flag.Flag) {
			typ := fmt.Sprintf("%T", f.Value)
			if g, ok := f.Value.(flag.Getter); ok {
				typ = fmt.Sprintf("%T", g.Get())
			}
			d := def{typ, f.DefValue, f.Usage, c.name}
			prev, ok := seen[f.Name]
			if !ok {
				seen[f.Name] = d
				return
			}
			if prev.typ != d.typ || prev.deflt != d.deflt || prev.usage != d.usage {
				t.Errorf("-%s means two things:\n  %s: %s, default %q, %q\n  %s: %s, default %q, %q\ndefine it once in flags.go",
					f.Name, prev.sub, prev.typ, prev.deflt, prev.usage, d.sub, d.typ, d.deflt, d.usage)
			}
		})
	}

	daemon := daemonFlags(t, fset)
	if len(daemon) == 0 {
		t.Fatal("read no flag definitions from cmd/centraliumd")
	}
	for name, d := range daemon {
		if prev, ok := seen[name]; ok && (prev.typ != d.typ || prev.deflt != d.deflt) {
			t.Errorf("-%s means two things:\n  centralium %s: %s, default %q\n  centraliumd: %s, default %q\nuse one type and default, or another name",
				name, prev.sub, prev.typ, prev.deflt, d.typ, d.deflt)
		}
	}
}

// flagVarTypes maps a flag.FlagSet method that defines a typed flag to the
// type flag.Getter returns for it.
var flagVarTypes = map[string]string{
	"Bool": "bool", "Int": "int", "Int64": "int64", "Uint": "uint", "Uint64": "uint64",
	"String": "string", "Float64": "float64", "Duration": "time.Duration",
}

// daemonFlags reads the flags cmd/centraliumd defines — fs.<Type>Var(&v,
// name, default, usage) or fs.<Type>(name, default, usage) calls — into
// their types and defaults, rendered as flag.Flag.DefValue renders them.
func daemonFlags(t *testing.T, fset *token.FileSet) map[string]struct{ typ, deflt string } {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, filepath.Join("..", "centraliumd"), func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]struct{ typ, deflt string }{}
	for _, file := range pkgs["main"].Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
				return true
			}
			method, args := sel.Sel.Name, call.Args
			if m, ok := strings.CutSuffix(method, "Var"); ok && len(args) > 0 {
				method, args = m, args[1:]
			}
			typ, ok := flagVarTypes[method]
			if !ok || len(args) != 3 {
				return true
			}
			lit, ok := args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: a flag named by something other than a string literal", fset.Position(call.Pos()))
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			deflt, ok := defValue(typ, constValue(args[1]))
			if !ok {
				t.Errorf("%s: cannot read the default of -%s; write it as a constant expression", fset.Position(call.Pos()), name)
			}
			out[name] = struct{ typ, deflt string }{typ, deflt}
			return true
		})
	}
	return out
}

// constValue evaluates a constant expression over literals and time's
// units; anything else is unknown.
func constValue(e ast.Expr) constant.Value {
	units := map[string]time.Duration{
		"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond, "Millisecond": time.Millisecond,
		"Second": time.Second, "Minute": time.Minute, "Hour": time.Hour,
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return constant.MakeFromLiteral(e.Value, e.Kind, 0)
	case *ast.Ident:
		if e.Name == "true" || e.Name == "false" {
			return constant.MakeBool(e.Name == "true")
		}
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "time" {
			if u, ok := units[e.Sel.Name]; ok {
				return constant.MakeInt64(int64(u))
			}
		}
	case *ast.ParenExpr:
		return constValue(e.X)
	case *ast.UnaryExpr:
		if x := constValue(e.X); x.Kind() != constant.Unknown {
			return constant.UnaryOp(e.Op, x, 0)
		}
	case *ast.BinaryExpr:
		x, y := constValue(e.X), constValue(e.Y)
		if x.Kind() != constant.Unknown && y.Kind() != constant.Unknown {
			return constant.BinaryOp(x, e.Op, y)
		}
	}
	return constant.MakeUnknown()
}

// defValue renders a constant default of a flag of type typ as
// flag.Flag.DefValue does.
func defValue(typ string, v constant.Value) (string, bool) {
	switch {
	case typ == "string" && v.Kind() == constant.String:
		return constant.StringVal(v), true
	case typ == "bool" && v.Kind() == constant.Bool:
		return strconv.FormatBool(constant.BoolVal(v)), true
	case typ == "time.Duration" && v.Kind() == constant.Int:
		ns, exact := constant.Int64Val(v)
		return time.Duration(ns).String(), exact
	case typ == "float64" && (v.Kind() == constant.Int || v.Kind() == constant.Float):
		f, _ := constant.Float64Val(v)
		return strconv.FormatFloat(f, 'g', -1, 64), true
	case v.Kind() == constant.Int:
		return v.ExactString(), true
	}
	return "", false
}

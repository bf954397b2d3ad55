// Command centralium is the operator front door to the emulated stack: one
// binary, one subcommand per tool, one flag vocabulary (flags.go).
//
//	centralium <stack|fabsim|migrate|plan|qualify|rpa|bmptail|tables> [flags]
//	centralium help
//
// Every subcommand parses its own flag.FlagSet, writes results to stdout
// and diagnostics to stderr, and returns an exit status — 0 done, 1 the
// run failed or reached a failing verdict, 2 the invocation was wrong —
// so the whole CLI runs in-process under test (main_test.go); main is the
// only caller of os.Exit. The serving daemon stays its own binary,
// cmd/centraliumd.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// runFunc does a subcommand's work once its flags are parsed. mode is the
// positional sub-subcommand for the commands that have them, else "".
type runFunc func(mode string, stdout, stderr io.Writer) error

// command is one subcommand. setup defines the command's flags on fs and
// returns the function to run after fs.Parse; keeping definition apart
// from running lets tests and `help` walk every FlagSet without running
// anything.
type command struct {
	name    string
	args    string   // synopsis after the name
	summary string   // one line for `centralium help`
	modes   []string // positional sub-subcommands, first argument
	setup   func(fs *flag.FlagSet) runFunc
}

var commands = []command{
	{name: "stack", args: "[-app equalize|protect|te|filter] [flags]", setup: stackCmd,
		summary: "stand up fabric, NSDB, switch agents and controller; run one health-checked RPA rollout (§5)"},
	{name: "fabsim", args: "[flags] | -chaos -scenario <name> | -snapshot <file> [-fork N] | -replay <file>", setup: fabsimCmd,
		summary: "build and converge a fabric; seeded chaos runs; save, restore and fork snapshots"},
	{name: "migrate", args: "-scenario <name> [-rpa] | -plan", setup: migrateCmd,
		summary: "run one of the paper's migration scenarios (§3), native or RPA-protected"},
	{name: "plan", args: "<plan|score|explain|scenarios> -scenario <name> [flags]", modes: []string{"plan", "score", "explain", "scenarios"}, setup: planCmd,
		summary: "search deployment schedules, score or explain one, execute it under the guard"},
	{name: "qualify", args: "-suite <name> | -all", setup: qualifyCmd,
		summary: "pre-deployment qualification suites (§7.1); exit 1 on a violation"},
	{name: "rpa", args: "<show|explain|fib> -scenario <name> [-device <id>] [-prefix <p>]", modes: []string{"show", "explain", "fib"}, setup: rpaCmd,
		summary: "operator debugging (§7.2): active RPAs on a switch, why a route is governed, FIB dump"},
	{name: "bmptail", args: "[-listen addr] [-count N] [-json] [-quiet]", setup: bmptailCmd,
		summary: "fleet telemetry station: tail BMP-style streams, run the pathology detectors online"},
	{name: "tables", args: "-list | -exp <id> | -all", setup: tablesCmd,
		summary: "regenerate the paper's tables and figures on the emulated substrate"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one invocation (args without the program name).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		help(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		help(stdout)
		return 0
	}
	for i := range commands {
		if commands[i].name == args[0] {
			return commands[i].run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "centralium: unknown subcommand %q\n\n", args[0])
	help(stderr)
	return 2
}

// flagSet builds the command's FlagSet and the function to run after it
// is parsed.
func (c *command) flagSet(stderr io.Writer) (*flag.FlagSet, runFunc) {
	fs := flag.NewFlagSet("centralium "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: centralium %s %s\n%s\n\nflags:\n", c.name, c.args, c.summary)
		fs.PrintDefaults()
	}
	return fs, c.setup(fs)
}

// run parses args (without the subcommand name) and runs the command.
func (c *command) run(args []string, stdout, stderr io.Writer) int {
	fs, do := c.flagSet(stderr)
	mode := ""
	if len(args) > 0 && slices.Contains(c.modes, args[0]) {
		mode, args = args[0], args[1:]
	}
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2 // Parse printed the error and the usage
	case len(c.modes) > 0 && mode == "":
		err = usagef("want %s before the flags, got %q", strings.Join(c.modes, " | "), fs.Arg(0))
	case fs.NArg() > 0:
		err = usagef("unexpected argument %q", fs.Arg(0))
	default:
		err = do(mode, stdout, stderr)
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFailed):
		return 1
	case errors.As(err, &ue):
		fmt.Fprintf(stderr, "centralium %s: %v\n", c.name, err)
		fs.Usage()
		return 2
	}
	fmt.Fprintf(stderr, "centralium %s: %v\n", c.name, err)
	return 1
}

// help prints the CLI reference. README.md carries it verbatim and a test
// holds the two equal. The shared-flag list is read off the FlagSets, so
// it cannot drift from what the subcommands define.
func help(w io.Writer) {
	fmt.Fprint(w, "usage: centralium <subcommand> [flags]\n\nsubcommands:\n")
	users := map[string][]string{}
	usage := map[string]string{}
	for i := range commands {
		c := &commands[i]
		fmt.Fprintf(w, "  %-8s %s\n           centralium %s %s\n", c.name, c.summary, c.name, c.args)
		fs, _ := c.flagSet(io.Discard)
		fs.VisitAll(func(f *flag.Flag) {
			users[f.Name] = append(users[f.Name], c.name)
			_, usage[f.Name] = flag.UnquoteUsage(f)
		})
	}
	fmt.Fprint(w, "  help     print this reference\n\nflags that mean one thing on every subcommand that takes them:\n")
	var shared []string
	for name, subs := range users {
		if len(subs) > 1 {
			shared = append(shared, name)
		}
	}
	sort.Strings(shared)
	for _, name := range shared {
		fmt.Fprintf(w, "  -%-9s %s (%s)\n", name, usage[name], strings.Join(users[name], ", "))
	}
	fmt.Fprint(w, "\n`centralium <subcommand> -h` lists every flag of one subcommand.\n"+
		"exit status: 0 done, 1 the run failed or reached a failing verdict, 2 usage error.\n"+
		"the serving daemon is a separate binary, centraliumd.\n")
}

package main

// The flag vocabulary: a flag more than one subcommand takes is defined
// here, once, so its type, default and meaning cannot differ between them
// (TestOneFrontDoor walks the FlagSets and fails a name that does).
// -checkpoint / -resume (planner search container), -data-dir and the
// -guard / -envelope / -max-retries trio have one taker, `plan`, and live
// there; -save-snapshot writes what -snapshot reads.

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

func seedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 42, "seed for the emulation and any search on it; same seed, same output")
}

func jsonFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("json", false, "print one JSON object per line instead of text")
}

func allFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("all", false, "run everything the subcommand has, in its listing order")
}

func podsFlag(fs *flag.FlagSet) *int {
	return fs.Int("pods", 2, "fabric pods")
}

func scenarioFlag(fs *flag.FlagSet) *string {
	return fs.String("scenario", "", "named scenario to stand up; a missing or unknown `name` lists the ones the subcommand has")
}

func snapshotFlag(fs *flag.FlagSet) *string {
	return fs.String("snapshot", "", "start from this captured .csnp `file` instead of building and converging the base")
}

// oneOf checks a named choice (a -scenario, a -suite) against what the
// subcommand accepts.
func oneOf(flagName, got string, have []string) error {
	if slices.Contains(have, got) {
		return nil
	}
	return usagef("-%s %q: want one of %s", flagName, got, strings.Join(have, " | "))
}

// usageError is a mistake in the invocation: the dispatcher prints it with
// the subcommand's usage and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// errFailed ends a run whose verdict is already on stdout — a violated
// qualification suite, an unhealthy chaos run: exit 1, nothing more to say.
var errFailed = errors.New("failed")

// intList is a flag holding a comma-separated list of integers.
type intList []int

func (l *intList) String() string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint([]int(*l)), " ", ","), "[]")
}

func (l *intList) Set(s string) error {
	*l = nil
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("bad integer %q in list", f)
		}
		*l = append(*l, v)
	}
	return nil
}

// Package experiments contains one harness per table and figure of the
// paper's Sections 3 and 6 (plus the Section 5.3 and 7.2 case studies):
// each builds its workload, runs it on the emulated substrate, and formats
// the same rows or series the paper reports. `centralium tables` and
// the repository's testing.B benchmarks both call into this package, and
// EXPERIMENTS.md records paper-vs-measured for every entry.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one reproducible table/figure generator.
type Experiment struct {
	ID    string // e.g. "fig2", "table3"
	Title string
	Run   func(seed int64) (string, error)
}

// registry holds all experiments, keyed by ID.
var registry = map[string]Experiment{}

func register(id, title string, run func(seed int64) (string, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get looks an experiment up by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// Run executes one experiment and returns its formatted output.
func Run(id string, seed int64) (string, error) {
	e, ok := Get(id)
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have: %s)", id, strings.Join(IDs(), ", "))
	}
	out, err := e.Run(seed)
	if err != nil {
		return "", fmt.Errorf("experiments: %s: %w", id, err)
	}
	return header(e) + out, nil
}

// Row is one machine-readable data point of an experiment: a labelled
// arm (or series entry) with named numeric values. Rows are what the
// telemetry collector's replay tests consume.
type Row struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values"`
}

// Report is the machine-readable form of one experiment run, emitted by
// `centralium tables -json` (one JSON object per experiment).
type Report struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Seed   int64  `json:"seed"`
	Rows   []Row  `json:"rows,omitempty"`
	Output string `json:"output"`
}

// rowsRegistry holds the structured-row producers for experiments that
// expose them; text-only experiments simply have no entry.
var rowsRegistry = map[string]func(seed int64) []Row{}

func registerRows(id string, fn func(seed int64) []Row) {
	rowsRegistry[id] = fn
}

// RunReport executes one experiment and returns its formatted output
// together with its machine-readable rows, when the experiment exposes
// them.
func RunReport(id string, seed int64) (Report, error) {
	e, ok := Get(id)
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown experiment %q (have: %s)", id, strings.Join(IDs(), ", "))
	}
	out, err := e.Run(seed)
	if err != nil {
		return Report{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep := Report{ID: e.ID, Title: e.Title, Seed: seed, Output: out}
	if fn, ok := rowsRegistry[e.ID]; ok {
		rep.Rows = fn(seed)
	}
	return rep, nil
}

// IDs lists registered experiment IDs.
func IDs() []string {
	var out []string
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func header(e Experiment) string {
	line := strings.Repeat("=", len(e.Title))
	return fmt.Sprintf("%s\n%s\n", e.Title, line)
}

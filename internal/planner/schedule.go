// Package planner searches the deployment-schedule space of a migration
// intent instead of replaying the paper's fixed §5.3.2 bottom-up order.
// Given a converged fabric snapshot and a per-device RPA intent, it
// generates candidate schedules — wave orderings, batch sizes, RPA on/off
// per wave, MinNextHop threshold overrides — and evaluates each candidate
// by forking the snapshot and pushing the schedule through the real
// rollout path (controller.ExecuteCtx) on the fork, scoring the transient
// with the telemetry pathology detectors plus convergence time.
//
// The search is a seeded beam search with snapshot-fingerprint
// memoization: encoded snapshots double as state fingerprints, so two
// schedule prefixes that reach byte-identical fabric states share every
// downstream evaluation. Candidate evaluation fans across a worker pool;
// results are deterministic — same seed, same winning schedule, byte for
// byte, regardless of worker count, and across a mid-search
// checkpoint/restore.
package planner

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"centralium/internal/controller"
	"centralium/internal/topo"
)

// Step is one deployment wave of a candidate schedule: a batch of devices
// pushed together (settling per the planner's cadence), with the wave's
// protection knobs.
type Step struct {
	// Devices deploy in this wave, in order.
	Devices []topo.DeviceID

	// Bare strips every RPA statement from the wave's configs — the
	// "deploy without protection" arm of the search. The version still
	// pushes, so the fleet state stays consistent; only the protective
	// behavior is absent.
	Bare bool

	// MinNextHop, when positive, overrides the BgpNativeMinNextHop
	// percentage of the wave's PathSelection statements that already
	// carry one (a searchable protection threshold).
	MinNextHop int
}

// Clone deep-copies the step.
func (s Step) Clone() Step {
	out := s
	out.Devices = append([]topo.DeviceID(nil), s.Devices...)
	return out
}

// String renders the step in the canonical schedule syntax:
// "dev1,dev2" with optional "!bare" and "!mnh=NN" suffixes.
func (s Step) String() string {
	var b strings.Builder
	for i, d := range s.Devices {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(d))
	}
	if s.Bare {
		b.WriteString("!bare")
	}
	if s.MinNextHop > 0 {
		fmt.Fprintf(&b, "!mnh=%d", s.MinNextHop)
	}
	return b.String()
}

// Schedule is one complete deployment plan: waves in execution order.
type Schedule struct {
	Steps []Step
}

// String renders the canonical text form — the golden-file and
// `centralium plan` interchange format. Equal schedules render
// byte-identically.
func (s Schedule) String() string {
	parts := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		parts[i] = st.String()
	}
	return strings.Join(parts, " > ")
}

// Clone deep-copies the schedule.
func (s Schedule) Clone() Schedule {
	out := Schedule{Steps: make([]Step, len(s.Steps))}
	for i, st := range s.Steps {
		out.Steps[i] = st.Clone()
	}
	return out
}

// Devices returns every device the schedule deploys, in deployment order.
func (s Schedule) Devices() []topo.DeviceID {
	var out []topo.DeviceID
	for _, st := range s.Steps {
		out = append(out, st.Devices...)
	}
	return out
}

// Waves converts the schedule to the controller's explicit wave form.
func (s Schedule) Waves() [][]topo.DeviceID {
	waves := make([][]topo.DeviceID, len(s.Steps))
	for i, st := range s.Steps {
		waves[i] = append([]topo.DeviceID(nil), st.Devices...)
	}
	return waves
}

// Parse reads the canonical text form back into a Schedule.
func Parse(text string) (Schedule, error) {
	var out Schedule
	text = strings.TrimSpace(text)
	if text == "" {
		return out, nil
	}
	for _, part := range strings.Split(text, ">") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Schedule{}, fmt.Errorf("planner: empty step in schedule %q", text)
		}
		fields := strings.Split(part, "!")
		var st Step
		for _, dev := range strings.Split(fields[0], ",") {
			dev = strings.TrimSpace(dev)
			if dev == "" {
				return Schedule{}, fmt.Errorf("planner: empty device in step %q", part)
			}
			st.Devices = append(st.Devices, topo.DeviceID(dev))
		}
		for _, opt := range fields[1:] {
			opt = strings.TrimSpace(opt)
			switch {
			case opt == "bare":
				st.Bare = true
			case strings.HasPrefix(opt, "mnh="):
				v, err := strconv.Atoi(opt[len("mnh="):])
				if err != nil || v <= 0 || v > 100 {
					return Schedule{}, fmt.Errorf("planner: bad mnh option %q in step %q", opt, part)
				}
				st.MinNextHop = v
			default:
				return Schedule{}, fmt.Errorf("planner: unknown step option %q in step %q", opt, part)
			}
		}
		out.Steps = append(out.Steps, st)
	}
	return out, nil
}

// FromWaves wraps an explicit wave schedule (e.g. controller.Waves output
// or controller.RandomOrderWaves) as a plain protected Schedule.
func FromWaves(waves [][]topo.DeviceID) Schedule {
	out := Schedule{Steps: make([]Step, 0, len(waves))}
	for _, w := range waves {
		if len(w) == 0 {
			continue
		}
		out.Steps = append(out.Steps, Step{Devices: append([]topo.DeviceID(nil), w...)})
	}
	return out
}

// Intent restricts a full campaign intent to the step's devices: the
// intent's own configs, by pointer, for a plain step, and for one with knobs
// a copy of each config with the knobs applied (the intent's own is shared
// and never edited, see core.Config) — the projection an Executor pushes
// through the rollout path, for the search's evaluator and the execution
// guard (internal/guard) alike, so the guard's degraded retry shapes
// (smaller batches, MinNextHop overrides) deploy exactly what the planner
// would have deployed.
func (st Step) Intent(in controller.Intent) controller.Intent {
	out := make(controller.Intent, len(st.Devices))
	for _, d := range st.Devices {
		if in[d] == nil {
			continue
		}
		if !st.Bare && st.MinNextHop <= 0 {
			out[d] = in[d]
			continue
		}
		cfg := *in[d]
		if st.Bare {
			cfg.PathSelection, cfg.RouteAttribute, cfg.RouteFilter = nil, nil, nil
		}
		if st.MinNextHop > 0 {
			cfg.PathSelection = slices.Clone(cfg.PathSelection)
			for i := range cfg.PathSelection {
				if cfg.PathSelection[i].BgpNativeMinNextHop.Percent > 0 {
					cfg.PathSelection[i].BgpNativeMinNextHop.Percent = float64(st.MinNextHop)
				}
			}
		}
		out[d] = &cfg
	}
	return out
}

// sortedDevices returns an intent's devices sorted (stable candidate
// generation never iterates a map directly).
func sortedDevices(in controller.Intent) []topo.DeviceID {
	out := make([]topo.DeviceID, 0, len(in))
	for d := range in {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

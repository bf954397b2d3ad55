// Package qualify implements the pre-deployment verification of Section
// 7.1: "integration tests that validate end-to-end routing intent by
// emulating a reduced-scale production network incorporating both BGP and
// the controller. These tests run whenever there is an update to the
// binaries or configuration, preventing incompatible changes from reaching
// production."
//
// A Spec bundles an emulated network, the RPA intent under qualification,
// a traffic workload, and invariants. Run deploys the intent through the
// real controller rollout path while sampling the invariants during every
// convergence transient, then re-checks them at steady state — so a change
// that is only unsafe *during* deployment (the Figure 10 class of bugs)
// fails qualification too.
package qualify

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/probe"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// Invariant is one property that must hold at steady state and, when
// Transient is set, throughout deployment transients.
type Invariant struct {
	Name string
	// Transient invariants are also sampled during the rollout, by the one
	// probe (internal/probe): after an emulation event, if forwarding state
	// may have moved since the last sample. A transient Check must
	// therefore be a function of forwarding state (the network's FIBs and
	// the traffic result) — one that read, say, the virtual clock or a
	// queue depth would miss the instants nothing was re-sampled.
	Transient bool
	// Check inspects the network (and the workload's traffic result when
	// the spec has a workload; nil otherwise) and returns a violation
	// description, or "" when satisfied.
	Check func(n *fabric.Network, res *traffic.Result) string
}

// Spec is one qualification run.
type Spec struct {
	Name string

	// Net is the emulated network, already converged to its pre-change
	// steady state.
	Net *fabric.Network

	// Intent is the RPA change under qualification.
	Intent controller.Intent
	// Compiled, when set, holds programs compiled from configs of Intent,
	// keyed by device (controller.Rollout.Compiled). A device whose program
	// was compiled from the very config Intent pushes to it is neither
	// validated nor compiled again: that program is deployed, shared by
	// reference. Any other device compiles as without it. centraliumd's
	// snapshot cache compiles each base's intent once and every what-if on
	// the base passes those programs here, read-only, from many goroutines.
	Compiled map[topo.DeviceID]*core.Program
	// OriginAltitude orders the rollout (Section 5.3.2).
	OriginAltitude int
	// Removal qualifies an RPA removal instead of a deployment.
	Removal bool

	// Workload is the traffic the invariants are evaluated under; nil
	// disables traffic-based checks.
	Workload []traffic.Demand

	Invariants []Invariant

	// Approval, when set, must approve the rollout's wave schedule before
	// any device is touched; an error fails qualification as a rollout
	// violation. The campaign planner's Approver binds here, which is how
	// a gate demands a planner-approved schedule (see internal/planner).
	Approval func(waves [][]topo.DeviceID) error

	// Schedule, when non-nil, overrides the §5.3.2 altitude-derived wave
	// order with an explicit deployment schedule (controller.Rollout
	// semantics: each inner slice is one wave; devices outside the intent
	// are dropped). centraliumd's what-if endpoint qualifies operator- or
	// planner-proposed schedules through this.
	Schedule [][]topo.DeviceID

	// SampleEvery is ignored: the probe samples every change of
	// forwarding state. It stays declared for callers that still set it.
	SampleEvery int

	// OnReport, when set, observes the finished report. Gate's HealthCheck
	// only surfaces an error; this hook hands callers the structured
	// verdict (violations with virtual timestamps) as well.
	OnReport func(*Report)
}

// Violation is one invariant failure.
type Violation struct {
	Invariant string
	// Transient is true when the failure occurred mid-rollout; false at
	// steady state.
	Transient bool
	// At is the virtual time of the first occurrence.
	At     time.Duration
	Detail string
}

// Report is the outcome of a qualification run.
type Report struct {
	Spec       string
	Passed     bool
	Violations []Violation
	// Events is the emulation event count during the rollout.
	Events int64
}

// String renders the report for CI logs.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "qualification %q: %s (%d events)\n", r.Spec, verdict, r.Events)
	for _, v := range r.Violations {
		phase := "steady-state"
		if v.Transient {
			phase = fmt.Sprintf("transient @%v", v.At.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "  VIOLATION [%s] %s: %s\n", phase, v.Invariant, v.Detail)
	}
	return b.String()
}

// Run executes the qualification on spec.Net itself: deploy the intent
// through the controller (per-device settling, sampling transient
// invariants as forwarding state moves), then evaluate all invariants at
// steady state.
func Run(spec Spec) (*Report, error) {
	if spec.Net == nil {
		return nil, fmt.Errorf("qualify: spec %q has no network", spec.Name)
	}
	rep := &Report{Spec: spec.Name, Passed: true}
	n := spec.Net

	evaluate := func(transient bool, res *traffic.Result) {
		if spec.Workload == nil {
			res = nil
		}
		for _, inv := range spec.Invariants {
			if transient && !inv.Transient {
				continue
			}
			if detail := inv.Check(n, res); detail != "" {
				if transient && alreadySeen(rep, inv.Name, true) {
					continue // record only the first transient occurrence
				}
				rep.Passed = false
				rep.Violations = append(rep.Violations, Violation{
					Invariant: inv.Name,
					Transient: transient,
					At:        time.Duration(n.Now()),
					Detail:    detail,
				})
			}
		}
	}
	sampler := probe.Attach(n, spec.Workload, func(_ int64, res *traffic.Result) {
		evaluate(true, res)
	})

	ctl := &controller.Controller{
		Topo:   n.Topo,
		Deploy: controller.DeployCompiled(spec.Compiled, n),
		Settle: func() { rep.Events += n.Converge() },
	}
	err := ctl.Run(controller.Rollout{
		Intent:          spec.Intent,
		Compiled:        spec.Compiled,
		OriginAltitude:  spec.OriginAltitude,
		Removal:         spec.Removal,
		SettlePerDevice: true,
		Schedule:        spec.Schedule,
		Approval:        spec.Approval,
	})
	if err != nil {
		rep.Passed = false
		rep.Violations = append(rep.Violations, Violation{
			Invariant: "rollout",
			Detail:    err.Error(),
			At:        time.Duration(n.Now()),
		})
		if spec.OnReport != nil {
			spec.OnReport(rep)
		}
		return rep, nil
	}
	rep.Events += n.Converge()
	evaluate(false, sampler.Measure())
	if spec.OnReport != nil {
		spec.OnReport(rep)
	}
	return rep, nil
}

func alreadySeen(rep *Report, name string, transient bool) bool {
	for _, v := range rep.Violations {
		if v.Invariant == name && v.Transient == transient {
			return true
		}
	}
	return false
}

// --- Standard invariants ----------------------------------------------------

// NoBlackholes requires full delivery of the workload.
func NoBlackholes() Invariant {
	return Invariant{
		Name:      "no-blackholes",
		Transient: true,
		Check: func(_ *fabric.Network, res *traffic.Result) string {
			if res == nil {
				return ""
			}
			if bh := res.BlackholedFraction(); bh > 1e-9 {
				return fmt.Sprintf("%.1f%% of traffic black-holed", bh*100)
			}
			return ""
		},
	}
}

// NoLoops requires no circulating traffic.
func NoLoops() Invariant {
	return Invariant{
		Name:      "no-forwarding-loops",
		Transient: true,
		Check: func(_ *fabric.Network, res *traffic.Result) string {
			if res == nil || !res.HasLoop() {
				return ""
			}
			return fmt.Sprintf("%.2f units of traffic circulating", res.Looped)
		},
	}
}

// FunnelBound caps any single listed device's share of the workload.
func FunnelBound(devices []topo.DeviceID, maxShare float64) Invariant {
	return Invariant{
		Name:      fmt.Sprintf("funnel-bound-%.0f%%", maxShare*100),
		Transient: true,
		Check: func(_ *fabric.Network, res *traffic.Result) string {
			if res == nil {
				return ""
			}
			dev, share := res.MaxDeviceShare(devices)
			if share > maxShare {
				return fmt.Sprintf("%s carries %.1f%% of traffic (bound %.1f%%)", dev, share*100, maxShare*100)
			}
			return ""
		},
	}
}

// MinPaths requires a device to hold at least n next hops for a prefix at
// steady state (the "expected changes to RIB and FIB, e.g. new paths are
// selected" post-check of Section 5).
func MinPaths(dev topo.DeviceID, prefixStr string, min int) Invariant {
	return Invariant{
		Name: fmt.Sprintf("min-paths-%s", dev),
		Check: func(n *fabric.Network, _ *traffic.Result) string {
			p, err := parsePrefix(prefixStr)
			if err != nil {
				return err.Error()
			}
			if got := len(n.NextHopWeights(dev, p)); got < min {
				return fmt.Sprintf("%s has %d path(s) to %s, want >= %d", dev, got, prefixStr, min)
			}
			return ""
		},
	}
}

// MaxLinkUtilization caps post-change utilization.
func MaxLinkUtilization(bound float64) Invariant {
	return Invariant{
		Name: fmt.Sprintf("max-link-utilization-%.2f", bound),
		Check: func(n *fabric.Network, res *traffic.Result) string {
			if res == nil {
				return ""
			}
			if u := res.MaxUtilization(n.Topo); u > bound {
				return fmt.Sprintf("max link utilization %.3f exceeds %.3f", u, bound)
			}
			return ""
		},
	}
}

func parsePrefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("qualify: bad prefix %q: %v", s, err)
	}
	return p, nil
}

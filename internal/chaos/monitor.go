package chaos

import (
	"fmt"

	"centralium/internal/probe"
	"centralium/internal/traffic"
)

// Monitor is the continuous invariant checker: the one probe
// (internal/probe) re-propagates the traffic matrix whenever routing state
// changed, and the monitor checks the data-plane invariants on each
// sample. Violations observed inside a fault disturbance window are
// flagged InGrace; the rest are "effective" — turbulence the fleet
// produced without an active excuse.
type Monitor struct {
	cfg CheckConfig
	inj *Injector // nil means nothing is ever in grace

	violations []Violation
	// transitions logs violation onsets and clears (not every dirty
	// sample), keeping the canonical log readable while still
	// deterministic.
	transitions []string
	active      map[string]bool // invariant -> currently violated
}

// NewMonitor builds a monitor over the same scope as CheckQuiescent.
func NewMonitor(cfg CheckConfig, inj *Injector) *Monitor {
	return &Monitor{cfg: cfg, inj: inj, active: make(map[string]bool)}
}

// Attach wires the monitor into the network through the probe's sampler.
// Call before the activity to observe.
func (m *Monitor) Attach() {
	probe.Attach(m.cfg.Net, m.cfg.Demands, m.Sample)
}

// Violations returns every continuous observation, in virtual-time order.
func (m *Monitor) Violations() []Violation { return m.violations }

// Raw counts all continuous violations, grace or not.
func (m *Monitor) Raw() int { return len(m.violations) }

// Effective counts continuous violations outside every disturbance
// window — the ones with no fault to blame.
func (m *Monitor) Effective() int {
	n := 0
	for _, v := range m.violations {
		if !v.InGrace {
			n++
		}
	}
	return n
}

// Transitions returns the onset/clear log lines for the canonical run
// log.
func (m *Monitor) Transitions() []string { return m.transitions }

// Sample runs the data-plane checks on one propagation of the demands —
// the probe sampler's callback.
func (m *Monitor) Sample(now int64, res *traffic.Result) {
	inGrace := m.inj != nil && m.inj.DisturbedAt(now)
	m.observe(InvNoLoop, res.HasLoop(), now, inGrace,
		fmt.Sprintf("%.4f circulating", res.Looped/max1(res.Injected)))
	m.observe(InvNoBlackhole, res.BlackholedFraction() > 1e-9, now, inGrace,
		fmt.Sprintf("%.4f black-holed", res.BlackholedFraction()))
}

// observe records a violation sample and logs onset/clear transitions.
func (m *Monitor) observe(invariant string, violated bool, now int64, inGrace bool, detail string) {
	was := m.active[invariant]
	if violated {
		m.violations = append(m.violations, Violation{
			Invariant: invariant, Time: now, InGrace: inGrace, Detail: detail,
		})
		if !was {
			m.active[invariant] = true
			g := ""
			if inGrace {
				g = " grace"
			}
			m.transitions = append(m.transitions, fmt.Sprintf("t=%d onset %s%s: %s", now, invariant, g, detail))
		}
	} else if was {
		m.active[invariant] = false
		m.transitions = append(m.transitions, fmt.Sprintf("t=%d clear %s", now, invariant))
	}
}

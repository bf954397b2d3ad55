package probe

import (
	"centralium/internal/fabric"
	"centralium/internal/telemetry"
	"centralium/internal/traffic"
)

// The retired sampling policy, kept as the differential oracle: propagate
// the workload after every engine event whether or not anything changed.
// It is what the seven hand-rolled samplers did before the probe replaced
// them; nothing outside the tests may use it.

// AttachEveryEvent is Attach under the every-event policy.
func AttachEveryEvent(n *fabric.Network, demands []traffic.Demand, fn func(now int64, res *traffic.Result)) *Sampler {
	s := &Sampler{pr: traffic.Propagator{Net: n}, demands: demands}
	n.OnEvent(func(now int64) { fn(now, s.Measure()) })
	return s
}

// NewTransientEveryEvent is NewTransient over the every-event oracle.
func NewTransientEveryEvent(n *fabric.Network, w Workload) *Transient {
	t := &Transient{w: w, net: n, detectors: telemetry.StandardDetectors(), startNow: n.Now(), lastNow: n.Now()}
	n.AddTap(t)
	t.sampler = AttachEveryEvent(n, w.Demands, t.sample)
	return t
}

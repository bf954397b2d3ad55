// Package probe is the one transient-measurement path: the paper's §3
// hazards (funnelling share, black-hole window, NHG peak) are all read the
// same way — watch the fabric's tap stream, re-propagate the workload
// between engine events, and fold the samples into a verdict. Sampler owns
// that construction and its one sampling policy; Transient is the
// integrator the planner scores with and the guard judges by. See
// DESIGN.md, "One probe".
package probe

import (
	"fmt"
	"slices"

	"centralium/internal/fabric"
	"centralium/internal/telemetry"
	"centralium/internal/topo"
	"centralium/internal/traffic"
)

// Sampler re-propagates a workload between engine events and hands each
// result to a callback. The policy is change-driven: after an event it
// samples only if a tap event that can move forwarding state (FIB write,
// best-path change, session up/down) arrived since the last sample.
// Between such events the previous sample still describes the fleet, so a
// consumer that is a function of forwarding state sees exactly the verdicts
// an every-event sampler would give it, at the instants they change. A
// sampler starts dirty: the first event always samples, whatever happened
// before it was attached.
type Sampler struct {
	pr      traffic.Propagator
	demands []traffic.Demand
	fn      func(now int64, res *traffic.Result)
	dirty   bool
}

// Attach wires a sampler into n — one more tap for dirtiness, one more
// after-event hook for sampling — and returns it. fn runs on the engine's
// goroutine with the virtual time of the event just processed.
func Attach(n *fabric.Network, demands []traffic.Demand, fn func(now int64, res *traffic.Result)) *Sampler {
	s := &Sampler{pr: traffic.Propagator{Net: n}, demands: demands, fn: fn, dirty: true}
	n.AddTap(s)
	n.OnEvent(s.afterEvent)
	return s
}

// Emit implements telemetry.Tap: it only tracks dirtiness.
func (s *Sampler) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindFIBWrite, telemetry.KindBestPath, telemetry.KindSessionUp, telemetry.KindSessionDown:
		s.dirty = true
	}
}

func (s *Sampler) afterEvent(now int64) {
	if !s.dirty {
		return
	}
	s.dirty = false
	s.fn(now, s.Measure())
}

// Measure propagates the workload once, now, outside the sampling policy —
// the steady-state read after a transient.
func (s *Sampler) Measure() *traffic.Result { return s.pr.Run(s.demands) }

// Workload is what a Transient measures against: the demands, the devices
// watched for funnelling with their fair-share reference, and the
// black-holed fraction above which the black-hole window runs.
type Workload struct {
	Demands      []traffic.Demand
	Watch        []topo.DeviceID
	FairShare    float64
	BlackholeEps float64
}

// Metrics is one measured transient — the planner's scoring input and the
// guard's evidence base, with the offender attribution the quarantine
// decision needs.
type Metrics struct {
	// BlackholeNs is the integrated virtual time the workload's
	// black-holed fraction exceeded epsilon.
	BlackholeNs int64 `json:"blackhole_ns"`
	// PeakShare is the worst transient share on a watched device;
	// ShareDevice is the device that carried it.
	PeakShare   float64 `json:"peak_share"`
	ShareDevice string  `json:"share_device,omitempty"`
	// ConvergeNs is the total virtual settle time.
	ConvergeNs int64 `json:"converge_ns"`
	// PeakNHG is the worst next-hop-group occupancy in FIB writes;
	// NHGDevice wrote it.
	PeakNHG   int    `json:"peak_nhg"`
	NHGDevice string `json:"nhg_device,omitempty"`
	// Churn counts routing events (Adj-RIB-In + best path).
	Churn int64 `json:"churn"`
	// SessionDowns counts BGP session-down events; DownDevices lists the
	// devices that reported them, in first-seen order.
	SessionDowns int64    `json:"session_downs"`
	DownDevices  []string `json:"down_devices,omitempty"`
	// Alerts counts detector alerts; AlertTags holds up to alertTagCap
	// "detector:device" tags in fire order, AlertDevices the devices.
	Alerts       int      `json:"alerts"`
	AlertTags    []string `json:"alert_tags,omitempty"`
	AlertDevices []string `json:"alert_devices,omitempty"`
	// Events is the engine event count the measurement consumed.
	Events int64 `json:"events"`
}

// alertTagCap bounds the alert evidence carried into violation details.
const alertTagCap = 6

// String is the guard decision log's metrics line.
func (m Metrics) String() string {
	return fmt.Sprintf("blackhole=%.2fms share=%.3f converge=%.2fms nhg=%d churn=%d session-downs=%d alerts=%d",
		float64(m.BlackholeNs)/1e6, m.PeakShare, float64(m.ConvergeNs)/1e6,
		m.PeakNHG, m.Churn, m.SessionDowns, m.Alerts)
}

// Transient measures one phase on one fork: it reads the tap stream for
// NHG peaks, churn and session losses, samples the workload through a
// Sampler for peak share and the black-hole window, and runs the standard
// pathology detectors over both. It holds no event history. The sampler's
// hook runs between two events of the fork's one engine loop, so the
// measurement is deterministic.
type Transient struct {
	w         Workload
	net       *fabric.Network
	sampler   *Sampler
	detectors []telemetry.Detector
	m         Metrics
	startNow  int64
	lastNow   int64
	lastBlack bool
}

// NewTransient attaches a transient measurement to n, starting now.
func NewTransient(n *fabric.Network, w Workload) *Transient {
	t := &Transient{w: w, net: n, detectors: telemetry.StandardDetectors(), startNow: n.Now()}
	t.lastNow = t.startNow
	n.AddTap(t)
	t.sampler = Attach(n, w.Demands, t.sample)
	return t
}

// Emit implements telemetry.Tap: the tap-derived metrics.
func (t *Transient) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindFIBWrite:
		if ev.NHGroups > t.m.PeakNHG {
			t.m.PeakNHG = ev.NHGroups
			t.m.NHGDevice = ev.Device
		}
	case telemetry.KindAdjRIBIn, telemetry.KindBestPath:
		t.m.Churn++
	case telemetry.KindSessionDown:
		t.m.SessionDowns++
		if !slices.Contains(t.m.DownDevices, ev.Device) {
			t.m.DownDevices = append(t.m.DownDevices, ev.Device)
		}
	}
	t.detect(ev)
}

func (t *Transient) detect(ev telemetry.Event) {
	for _, d := range t.detectors {
		a, ok := d.Observe(ev)
		if !ok {
			continue
		}
		t.m.Alerts++
		if len(t.m.AlertTags) < alertTagCap {
			t.m.AlertTags = append(t.m.AlertTags, a.Detector+":"+a.Device)
		}
		if !slices.Contains(t.m.AlertDevices, a.Device) {
			t.m.AlertDevices = append(t.m.AlertDevices, a.Device)
		}
	}
}

// sample folds one workload measurement in: integrate the black-hole
// window since the previous sample under the previous sample's verdict,
// then take the new one.
func (t *Transient) sample(now int64, res *traffic.Result) {
	if t.lastBlack && now > t.lastNow {
		t.m.BlackholeNs += now - t.lastNow
	}
	dev, share := res.MaxDeviceShare(t.w.Watch)
	if share > t.m.PeakShare {
		t.m.PeakShare = share
		t.m.ShareDevice = string(dev)
	}
	bh := res.BlackholedFraction()
	t.lastBlack = bh > t.w.BlackholeEps
	t.lastNow = now
	t.detect(telemetry.Event{
		Kind:       telemetry.KindTrafficSample,
		Time:       now,
		Device:     string(dev),
		Share:      share,
		FairShare:  t.w.FairShare,
		Blackholed: bh,
	})
}

// Finish closes the measurement window and returns the metrics. The
// settled end state is always sampled, even if the phase generated no
// events — a no-op deployment must still answer for the state it leaves
// behind.
func (t *Transient) Finish(events int64) Metrics {
	now := t.net.Now()
	t.sample(now, t.sampler.Measure())
	t.m.ConvergeNs = now - t.startNow
	t.m.Events = events
	return t.m
}

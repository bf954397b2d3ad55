package guard

import (
	"fmt"

	"centralium/internal/fabric"
	"centralium/internal/telemetry"
	"centralium/internal/traffic"
)

// WaveMetrics is one wave attempt's measured transient — the guard's
// evidence base. It mirrors the planner's StepOutcome with the offender
// attribution the quarantine decision needs on top.
type WaveMetrics struct {
	// BlackholeNs is the integrated virtual time the workload's
	// black-holed fraction exceeded epsilon.
	BlackholeNs int64 `json:"blackhole_ns"`
	// PeakShare is the worst transient share on a watched device;
	// ShareDevice is the device that carried it.
	PeakShare   float64 `json:"peak_share"`
	ShareDevice string  `json:"share_device,omitempty"`
	// ConvergeNs is the wave's total virtual settle time.
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
	// Events is the engine event count the attempt consumed.
	Events int64 `json:"events"`
}

// alertTagCap bounds the alert evidence carried into violation details.
const alertTagCap = 6

// String is the decision log's metrics line.
func (m WaveMetrics) String() string {
	return fmt.Sprintf("blackhole=%.2fms share=%.3f converge=%.2fms nhg=%d churn=%d session-downs=%d alerts=%d",
		float64(m.BlackholeNs)/1e6, m.PeakShare, float64(m.ConvergeNs)/1e6,
		m.PeakNHG, m.Churn, m.SessionDowns, m.Alerts)
}

// probe instruments one wave attempt's fork: it taps the fabric into a
// pathology collector and samples the workload on every engine event,
// exactly as the planner's evaluation probe does — the guard judges a
// live wave by the same metrics the planner scored it by. The hook runs
// between every two events of the one engine loop, so measurement is
// deterministic.
type probe struct {
	c         *Campaign
	net       *fabric.Network
	pr        *traffic.Propagator
	col       *telemetry.Collector
	m         WaveMetrics
	startNow  int64
	lastNow   int64
	lastBlack bool
	samples   int64
	downSeen  map[string]bool
	alertSeen map[string]bool
}

func newProbe(n *fabric.Network, c *Campaign) *probe {
	pb := &probe{
		c: c, net: n,
		pr:        &traffic.Propagator{Net: n},
		downSeen:  make(map[string]bool),
		alertSeen: make(map[string]bool),
	}
	pb.col = telemetry.NewCollector(telemetry.CollectorOptions{
		Detectors: telemetry.StandardDetectors(),
		OnEvent: func(ev telemetry.Event) {
			switch ev.Kind {
			case telemetry.KindFIBWrite:
				if ev.NHGroups > pb.m.PeakNHG {
					pb.m.PeakNHG = ev.NHGroups
					pb.m.NHGDevice = ev.Device
				}
			case telemetry.KindAdjRIBIn, telemetry.KindBestPath:
				pb.m.Churn++
			case telemetry.KindSessionDown:
				pb.m.SessionDowns++
				if !pb.downSeen[ev.Device] {
					pb.downSeen[ev.Device] = true
					pb.m.DownDevices = append(pb.m.DownDevices, ev.Device)
				}
			}
		},
		OnAlert: func(a telemetry.Alert) {
			pb.m.Alerts++
			if len(pb.m.AlertTags) < alertTagCap {
				pb.m.AlertTags = append(pb.m.AlertTags, a.Detector+":"+a.Device)
			}
			if !pb.alertSeen[a.Device] {
				pb.alertSeen[a.Device] = true
				pb.m.AlertDevices = append(pb.m.AlertDevices, a.Device)
			}
		},
	})
	n.SetTap(pb.col)
	pb.startNow = n.Now()
	pb.lastNow = pb.startNow
	n.OnEvent(func(now int64) { pb.observe(now) })
	return pb
}

// observe is the per-event sampler, thinned by SampleEvery.
func (pb *probe) observe(now int64) {
	pb.samples++
	if pb.samples%int64(pb.c.SampleEvery) != 0 {
		return
	}
	pb.sampleAt(now)
}

// sampleAt measures the workload at one instant: integrate the black-hole
// window since the previous sample under its verdict, then re-sample.
func (pb *probe) sampleAt(now int64) {
	if pb.lastBlack && now > pb.lastNow {
		pb.m.BlackholeNs += now - pb.lastNow
	}
	res := pb.pr.Run(pb.c.Demands)
	dev, share := res.MaxDeviceShare(pb.c.Watch)
	if share > pb.m.PeakShare {
		pb.m.PeakShare = share
		pb.m.ShareDevice = string(dev)
	}
	bh := res.BlackholedFraction()
	pb.lastBlack = bh > pb.c.BlackholeEps
	pb.lastNow = now
	pb.col.Emit(telemetry.Event{
		Kind:       telemetry.KindTrafficSample,
		Time:       now,
		Device:     string(dev),
		Share:      share,
		FairShare:  pb.c.FairShare,
		Blackholed: bh,
	})
}

// finish closes the measurement window: the settled end state is always
// sampled, so even a no-op wave answers for the state it leaves behind.
func (pb *probe) finish(events int64) WaveMetrics {
	now := pb.net.Now()
	pb.sampleAt(now)
	pb.m.ConvergeNs = now - pb.startNow
	pb.m.Events = events
	return pb.m
}

package telemetry

import (
	"sort"
	"sync"
)

// CollectorOptions has no settable fields: every Collector runs
// StandardDetectors() over a 4096-event ring per device. The type stays
// because the bench harness names it; it goes with the Collector (ROADMAP
// item 1(b)).
type CollectorOptions struct{}

// Collector is the fleet aggregation point: a Tap that keeps a bounded
// ring of recent events per device and runs the pathology detectors
// online. All methods are safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	detectors []Detector
	streams   map[string]*Ring
	alerts    []Alert
	events    uint64
}

// NewCollector builds a collector running the standard detector battery.
func NewCollector(CollectorOptions) *Collector {
	return &Collector{detectors: StandardDetectors(), streams: make(map[string]*Ring)}
}

// Emit ingests one event (Tap interface).
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	r := c.streams[ev.Device]
	if r == nil {
		r = NewRing(0)
		c.streams[ev.Device] = r
	}
	r.Push(ev)
	for _, d := range c.detectors {
		if a, ok := d.Observe(ev); ok {
			c.alerts = append(c.alerts, a)
		}
	}
}

// EventCount reports how many events were ingested.
func (c *Collector) EventCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Devices lists devices with buffered events, sorted.
func (c *Collector) Devices() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.streams))
	for d := range c.streams {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Events snapshots the buffered events for one device, oldest first.
func (c *Collector) Events(device string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.streams[device]; r != nil {
		return r.Snapshot()
	}
	return nil
}

// Alerts snapshots every fired alert in firing order.
func (c *Collector) Alerts() []Alert {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Alert, len(c.alerts))
	copy(out, c.alerts)
	return out
}

// AlertsBy snapshots the alerts fired by the named detector.
func (c *Collector) AlertsBy(detector string) []Alert {
	var out []Alert
	for _, a := range c.Alerts() {
		if a.Detector == detector {
			out = append(out, a)
		}
	}
	return out
}

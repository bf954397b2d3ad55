// Package telemetry is the streaming monitoring plane of the emulated
// fleet: a zero-cost-when-disabled event tap wired into the BGP speaker's
// decision pipeline, and an in-memory fleet collector with ring-buffered
// per-device streams and online detectors for the paper's Section 3
// pathologies — first/last-router funneling, NHG table pressure, route
// churn, and black-hole suspicion.
//
// The paper's operational sections (§5 health checks, §7.1 qualification,
// §7.2 debugging) assume operators can watch routing transients as they
// happen; this package is that substrate. Under the seeded fabric engine
// every event carries the virtual clock, so a telemetry stream is exactly
// reproducible.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/netip"
)

// Kind discriminates tap events.
type Kind uint8

// Event kinds, in rough pipeline order.
const (
	// KindSessionUp fires when a BGP session is registered with a speaker
	// (fabric link establishment).
	KindSessionUp Kind = iota
	// KindSessionDown fires when a session is torn down.
	KindSessionDown
	// KindAdjRIBIn fires on every UPDATE accepted into (or withdrawn
	// from) the Adj-RIB-In, before the decision process runs.
	KindAdjRIBIn
	// KindBestPath fires when a prefix's installed Loc-RIB best-path set
	// actually changes (not on no-op recomputes).
	KindBestPath
	// KindFIBWrite fires on forwarding-table writes, carrying NHG table
	// occupancy against the hardware cap — the §3.4 pressure signal.
	KindFIBWrite
	// KindRPAHit fires when an RPA statement governs a decision (path
	// selection or weight assignment).
	KindRPAHit
	// KindTrafficSample carries an observed traffic concentration for one
	// device — the funneling/black-hole signal sampled by experiment
	// harnesses or an external prober.
	KindTrafficSample
)

var kindNames = [...]string{
	KindSessionUp:     "session-up",
	KindSessionDown:   "session-down",
	KindAdjRIBIn:      "adj-rib-in",
	KindBestPath:      "best-path",
	KindFIBWrite:      "fib-write",
	KindRPAHit:        "rpa-hit",
	KindTrafficSample: "traffic-sample",
}

// String names the kind for logs and JSON output.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one tap observation. It is a flat value type so that emitting
// with a disabled tap costs nothing and emitting with an enabled tap does
// not allocate; only the fields relevant to Kind are set.
type Event struct {
	Kind   Kind   `json:"kind"`
	Time   int64  `json:"time_ns"` // virtual ns on the fabric clock
	Device string `json:"device"`

	// Session identity (session events, Adj-RIB-In).
	Session string `json:"session,omitempty"`
	Peer    string `json:"peer,omitempty"`
	PeerASN uint32 `json:"peer_asn,omitempty"`

	// Route content (Adj-RIB-In, best path, FIB writes).
	Prefix            netip.Prefix `json:"prefix,omitempty"`
	Withdraw          bool         `json:"withdraw,omitempty"`
	ASPath            []uint32     `json:"as_path,omitempty"`
	MED               uint32       `json:"med,omitempty"`
	LinkBandwidthGbps float64      `json:"link_bandwidth_gbps,omitempty"`

	// FIB / NHG occupancy (KindFIBWrite).
	FIBEntries int  `json:"fib_entries,omitempty"`
	NHGroups   int  `json:"nh_groups,omitempty"`
	NHGLimit   int  `json:"nhg_limit,omitempty"`
	NHGChurn   int  `json:"nhg_churn,omitempty"`
	Overflows  int  `json:"overflows,omitempty"`
	Warm       bool `json:"warm,omitempty"` // forwarding kept despite withdrawal

	// RPA activity (KindRPAHit).
	Statement string `json:"statement,omitempty"`

	// Traffic observation (KindTrafficSample); shares are fractions of
	// the total offered load.
	Share      float64 `json:"share,omitempty"`
	FairShare  float64 `json:"fair_share,omitempty"`
	Blackholed float64 `json:"blackholed,omitempty"`
}

// Tap consumes tap events. The deterministic fabric engine emits from its
// one event loop; a tap shared by networks on several goroutines must be
// safe for concurrent use. A nil Tap means telemetry is disabled; every emit
// site guards on that, so the disabled hot path is one pointer comparison.
type Tap interface {
	Emit(Event)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(Event)

// Emit calls f.
func (f TapFunc) Emit(ev Event) { f(ev) }

// MultiTap fans one event stream out to several taps (e.g. a probe plus
// the daemon's event bus). Nil members are skipped.
type MultiTap []Tap

// Emit forwards the event to every tap.
func (m MultiTap) Emit(ev Event) {
	for _, t := range m {
		if t != nil {
			t.Emit(ev)
		}
	}
}

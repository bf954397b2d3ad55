package controller

import (
	"fmt"
	"regexp"
	"sort"

	"centralium/internal/core"
	"centralium/internal/te"
	"centralium/internal/topo"
)

// This file implements the controller's use-case applications — the "10+
// use cases including Path Selection, Traffic Engineering, and Route
// Filtering" onboarded on the application layer (Section 5.1). Each app
// compiles a high-level operator intent into per-switch RPA configs
// (controller function 2: per-switch RPA generation).

// generate builds one Intent: build is called for each target in order (nil
// skips the device) and the configs are tagged 1..n in that order. The tag
// is the only thing a generator numbers, and the numbering never outlives
// the call, so an intent is a pure function of its arguments: generating it
// twice, or from two goroutines at once, yields the same bytes.
func generate(targets []topo.DeviceID, build func(d topo.DeviceID) *core.Config) Intent {
	out := make(Intent, len(targets))
	var version int64
	for _, d := range targets {
		if cfg := build(d); cfg != nil {
			version++
			cfg.Version = version
			out[d] = cfg
		}
	}
	return out
}

// App 1 — Path Equalization (Section 4.4.1, fixes the Figure 2 first-router
// problem): on every device of the target layers, select all paths for the
// destination learned from the device's upward peers, regardless of AS-path
// length. The per-switch peer signature is what "per-switch RPA generation"
// (Section 5, controller function 2) compiles from the high-level intent:
// scoping the set to uplinks keeps valley paths re-advertised by same- or
// lower-layer peers out of the selection.
func PathEqualizationIntent(t *topo.Topology, layers []topo.Layer, destCommunity string) Intent {
	var targets []topo.DeviceID
	for _, l := range layers {
		for _, d := range t.ByLayer(l) {
			targets = append(targets, d.ID)
		}
	}
	return generate(targets, func(d topo.DeviceID) *core.Config {
		ups := upwardNeighbors(t, t.Device(d))
		if len(ups) == 0 {
			return nil
		}
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:        "equalize-" + destCommunity,
				Destination: core.Destination{Community: destCommunity},
				PathSets: []core.PathSet{{
					Name:      "uplink-paths",
					Signature: core.PathSignature{PeerRegex: DeviceRegex(ups...)},
				}},
			}},
		}
	})
}

// upwardNeighbors returns a device's distinct neighbors at strictly higher
// altitude (its uplinks toward the backbone), sorted.
func upwardNeighbors(t *topo.Topology, d *topo.Device) []topo.DeviceID {
	seen := make(map[topo.DeviceID]bool)
	var out []topo.DeviceID
	for _, nb := range t.Neighbors(d.ID) {
		other := t.Device(nb)
		if other == nil || seen[nb] {
			continue
		}
		if other.Layer.Altitude() > d.Layer.Altitude() {
			seen[nb] = true
			out = append(out, nb)
		}
	}
	return out
}

// App 2 — Capacity Collapse Prevention (Section 4.4.2, fixes the Figure 4
// last-router problem): on the selected devices, withdraw the destination
// when the native next-hop set drops below minPercent of full health,
// optionally keeping the FIB warm so in-flight packets survive.
// expectedNextHops pins the full-health baseline from the controller's
// topology view; zero lets each switch use its observed high-water count.
func CapacityProtectionIntent(targets []topo.DeviceID, destCommunity string, minPercent float64, keepWarm bool, expectedNextHops int) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:                     "protect-" + destCommunity,
				Destination:              core.Destination{Community: destCommunity},
				PathSets:                 []core.PathSet{}, // empty: native selection
				BgpNativeMinNextHop:      core.MinNextHop{Percent: minPercent},
				KeepFibWarmIfMnhViolated: keepWarm,
				ExpectedNextHops:         expectedNextHops,
			}},
		}
	})
}

// App 3 — Traffic Engineering (Section 6.4, Figure 13): prescribe WCMP
// weights per device from the TE optimizer's path capacities.
func TrafficEngineeringIntent(dest core.Destination, perDevice map[topo.DeviceID][]te.Path, expiresAt int64) Intent {
	// perDevice is a map: generate in sorted device order, not iteration order.
	targets := make([]topo.DeviceID, 0, len(perDevice))
	for dev := range perDevice {
		targets = append(targets, dev)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return generate(targets, func(dev topo.DeviceID) *core.Config {
		paths := perDevice[dev]
		st := te.BuildRouteAttributeRPA("te-weights", dest, paths, te.Weights(paths, 0), expiresAt)
		return &core.Config{RouteAttribute: []core.RouteAttributeStatement{st}}
	})
}

// App 4 — Static WCMP / NHG protection (fixes the Figure 5 transient
// next-hop-group explosion): prescribe fixed equal weights a priori so
// peer-advertised bandwidth churn never reaches the FIB.
func StaticWCMPIntent(targets []topo.DeviceID, dest core.Destination) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			RouteAttribute: []core.RouteAttributeStatement{{
				Name:        "static-wcmp",
				Destination: dest,
				NextHopWeights: []core.NextHopWeight{{
					Signature: core.PathSignature{}, // every path
					Weight:    1,
				}},
			}},
		}
	})
}

// App 5 — Boundary Route Filtering (Section 4.3): allow only the listed
// prefixes (with mask bounds) from peers matching peerRegex, at the DC /
// backbone boundary.
func BoundaryFilterIntent(targets []topo.DeviceID, peerRegex string, rules []core.PrefixRule) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			RouteFilter: []core.RouteFilterStatement{{
				Name:          "boundary-allow",
				PeerSignature: peerRegex,
				Ingress:       &core.PrefixFilter{Rules: rules},
			}},
		}
	})
}

// App 6 — Egress Leak Prevention: the egress-direction twin of App 5,
// keeping more-specific prefixes from leaking upward.
func EgressFilterIntent(targets []topo.DeviceID, peerRegex string, rules []core.PrefixRule) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			RouteFilter: []core.RouteFilterStatement{{
				Name:          "egress-no-leak",
				PeerSignature: peerRegex,
				Egress:        &core.PrefixFilter{Rules: rules},
			}},
		}
	})
}

// App 7 — Maintenance Drain (Table 1 category e): steer traffic off the
// named devices by giving routes through them weight zero on their peers.
// drainedRegex matches the next-hop devices being drained.
func DrainWeightIntent(peersOfDrained []topo.DeviceID, dest core.Destination, drainedRegex string) Intent {
	return generate(peersOfDrained, func(topo.DeviceID) *core.Config {
		return &core.Config{
			RouteAttribute: []core.RouteAttributeStatement{{
				Name:        "drain",
				Destination: dest,
				NextHopWeights: []core.NextHopWeight{{
					Signature: core.PathSignature{NextHopRegex: drainedRegex},
					Weight:    0,
				}},
			}},
		}
	})
}

// App 8 — Primary/Backup Routing (Table 1 category d: "conditional primary
// and backup policies"): prefer paths via the primary next-hop set; fall
// back to backup only when the primary set is empty.
func PrimaryBackupIntent(targets []topo.DeviceID, dest core.Destination, primaryRegex, backupRegex string) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:        "primary-backup",
				Destination: dest,
				PathSets: []core.PathSet{
					{Name: "primary", Signature: core.PathSignature{NextHopRegex: primaryRegex}},
					{Name: "backup", Signature: core.PathSignature{NextHopRegex: backupRegex}},
				},
			}},
		}
	})
}

// App 9 — Anycast Stability (Table 1 category c, "special policy to
// anycast load-bearing prefixes for routing stability during maintenance"):
// keep forwarding to anycast origins only while enough distinct next hops
// exist, keeping the FIB warm to ride through convergence.
func AnycastStabilityIntent(targets []topo.DeviceID, anycastCommunity string, minNextHops int) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:        "anycast-stability",
				Destination: core.Destination{Community: anycastCommunity},
				PathSets: []core.PathSet{{
					Name:       "anycast-origins",
					Signature:  core.PathSignature{Communities: []string{anycastCommunity}},
					MinNextHop: core.MinNextHop{Count: minNextHops},
				}},
				KeepFibWarmIfMnhViolated: true,
			}},
		}
	})
}

// App 10 — Proximity Preference (Table 1 category d, "custom
// proximity-based forwarding preferences"): prefer routes originated by the
// local region's ASN, falling back to any origin.
func ProximityIntent(targets []topo.DeviceID, dest core.Destination, localOriginASN uint32) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:        "proximity",
				Destination: dest,
				PathSets: []core.PathSet{
					{Name: "local", Signature: core.PathSignature{OriginASN: localOriginASN}},
					{Name: "any", Signature: core.PathSignature{}},
				},
			}},
		}
	})
}

// App 11 — Service Isolation: refuse specific service prefixes from
// matching peers in both directions (differential traffic distribution for
// service-specific requirements).
func ServiceIsolationIntent(targets []topo.DeviceID, peerRegex string, allowed []core.PrefixRule) Intent {
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			RouteFilter: []core.RouteFilterStatement{{
				Name:          "service-isolation",
				PeerSignature: peerRegex,
				Ingress:       &core.PrefixFilter{Rules: allowed},
				Egress:        &core.PrefixFilter{Rules: allowed},
			}},
		}
	})
}

// App 12 — Origin Pinning: forward only to paths whose AS path ends at one
// of the given origin ASNs (routing-system-evolution guard rails while two
// route origination schemes coexist).
func OriginPinningIntent(targets []topo.DeviceID, dest core.Destination, originASNs []uint32) Intent {
	var alternation string
	for i, asn := range originASNs {
		if i > 0 {
			alternation += "|"
		}
		alternation += fmt.Sprintf("%d", asn)
	}
	sig := core.PathSignature{ASPathRegex: fmt.Sprintf("(%s)$", alternation)}
	return generate(targets, func(topo.DeviceID) *core.Config {
		return &core.Config{
			PathSelection: []core.PathSelectionStatement{{
				Name:        "origin-pinning",
				Destination: dest,
				PathSets:    []core.PathSet{{Name: "pinned-origins", Signature: sig}},
			}},
		}
	})
}

// DeviceRegex builds an anchored alternation matching exactly the given
// devices, for use in next-hop and peer signatures.
func DeviceRegex(devs ...topo.DeviceID) string {
	alternation := ""
	for i, d := range devs {
		if i > 0 {
			alternation += "|"
		}
		alternation += regexp.QuoteMeta(string(d))
	}
	return fmt.Sprintf("^(%s)$", alternation)
}

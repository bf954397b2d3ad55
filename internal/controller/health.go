package controller

import (
	"fmt"
	"strings"

	"centralium/internal/openr"
	"centralium/internal/topo"
)

// This file provides the standard health checks of Section 5's controller
// functions 1 and 4: management reachability over the Open/R substrate
// (pre-deployment, and the §5.2 device-failure detector) and generic
// state-expectation checks (post-deployment).

// MgmtReachabilityCheck requires every target device to be actually
// reachable (hop-by-hop probe, not just believed reachable) from the
// controller's management attachment point before a rollout proceeds.
func MgmtReachabilityCheck(dom *openr.Domain, source topo.DeviceID, targets []topo.DeviceID) HealthCheck {
	return HealthCheck{
		Name: "mgmt-reachability",
		Check: func() error {
			var dead []string
			for _, t := range targets {
				if !dom.Probe(source, t) {
					dead = append(dead, string(t))
				}
			}
			if len(dead) > 0 {
				return fmt.Errorf("%d target device(s) unreachable over management network: %s",
					len(dead), strings.Join(dead, ", "))
			}
			return nil
		},
	}
}

// DeviceFailureAlerts implements the Section 5.2 "Device Failures"
// behavior: it classifies devices a management source cannot reach into
// expected (intentionally down, e.g. drained for maintenance) and
// unexpected (alert operators).
func DeviceFailureAlerts(dom *openr.Domain, source topo.DeviceID, intendedDown map[topo.DeviceID]bool) (expected, unexpected []topo.DeviceID) {
	for _, dev := range dom.UnreachableFrom(source) {
		if intendedDown[dev] {
			expected = append(expected, dev)
		} else {
			unexpected = append(unexpected, dev)
		}
	}
	return expected, unexpected
}

// ExpectationCheck wraps a named boolean expectation over collected state
// (e.g. "new paths are selected", Section 5's post-deployment checks).
func ExpectationCheck(name string, ok func() (bool, string)) HealthCheck {
	return HealthCheck{
		Name: name,
		Check: func() error {
			pass, detail := ok()
			if !pass {
				return fmt.Errorf("expectation failed: %s", detail)
			}
			return nil
		},
	}
}

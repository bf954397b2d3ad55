// Package rpadebug implements the operator debugging tooling of Section
// 7.2: "(1) show all active RPAs on a switch, and (2) highlight the active
// RPA given a particular route". It renders per-switch RPA listings, RIB
// explanations, and FIB dumps from a live emulated network, and backs the
// `centralium rpa` subcommand.
package rpadebug

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"centralium/internal/bgp"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

func sessionID(id string) bgp.SessionID { return bgp.SessionID(id) }

// ListRPAs renders every statement of a switch's active RPA configuration
// (tool 1 of Section 7.2).
func ListRPAs(n *fabric.Network, dev topo.DeviceID) string {
	node := n.Node(dev)
	if node == nil {
		return fmt.Sprintf("no such device %q\n", dev)
	}
	cfg := node.Speaker.RPAConfig()
	var b strings.Builder
	fmt.Fprintf(&b, "device %s  (RPA config version %d)\n", dev, cfg.Version)
	if cfg.IsEmpty() {
		b.WriteString("  no active RPAs — native BGP behavior\n")
		return b.String()
	}
	for _, st := range cfg.PathSelection {
		fmt.Fprintf(&b, "  path-selection %q  destination=%s\n", st.Name, destString(st.Destination))
		for i, ps := range st.PathSets {
			fmt.Fprintf(&b, "    set %d %q: %s", i, ps.Name, sigString(ps.Signature))
			if !ps.MinNextHop.IsZero() {
				fmt.Fprintf(&b, "  min-next-hop=%s", mnhString(ps.MinNextHop))
			}
			b.WriteString("\n")
		}
		if !st.BgpNativeMinNextHop.IsZero() {
			fmt.Fprintf(&b, "    native-min-next-hop=%s keep-fib-warm=%v expected=%d\n",
				mnhString(st.BgpNativeMinNextHop), st.KeepFibWarmIfMnhViolated, st.ExpectedNextHops)
		}
	}
	for _, st := range cfg.RouteAttribute {
		fmt.Fprintf(&b, "  route-attribute %q  destination=%s", st.Name, destString(st.Destination))
		if st.ExpiresAt != 0 {
			fmt.Fprintf(&b, "  expires-at=%d", st.ExpiresAt)
		}
		b.WriteString("\n")
		for _, w := range st.NextHopWeights {
			fmt.Fprintf(&b, "    weight %d for %s\n", w.Weight, sigString(w.Signature))
		}
	}
	for _, st := range cfg.RouteFilter {
		fmt.Fprintf(&b, "  route-filter %q  peers=%q\n", st.Name, st.PeerSignature)
		if st.Ingress != nil {
			fmt.Fprintf(&b, "    ingress allow: %s\n", rulesString(st.Ingress.Rules))
		}
		if st.Egress != nil {
			fmt.Fprintf(&b, "    egress  allow: %s\n", rulesString(st.Egress.Rules))
		}
	}
	return b.String()
}

// ExplainRoute renders which RPA statement governs a prefix on a switch and
// how its path sets evaluated against the current RIB (tool 2 of Section
// 7.2).
func ExplainRoute(n *fabric.Network, dev topo.DeviceID, prefix netip.Prefix) string {
	node := n.Node(dev)
	if node == nil {
		return fmt.Sprintf("no such device %q\n", dev)
	}
	sp := node.Speaker
	cands := sp.Candidates(prefix)
	var b strings.Builder
	fmt.Fprintf(&b, "device %s  prefix %s\n", dev, prefix)
	if len(cands) == 0 {
		b.WriteString("  no candidate routes in the RIB\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %d candidate route(s):\n", len(cands))
	for i, c := range cands {
		fmt.Fprintf(&b, "    [%d] via %-14s as-path [%s] comms %v\n",
			i, c.NextHop, c.ASPathString(), c.Communities)
	}

	ex := sp.Program().NewEvaluator().ExplainSelection(cands, sp.Baseline(prefix))
	if ex.Statement == "" {
		b.WriteString("  no RPA statement matches this destination — native selection\n")
	} else {
		fmt.Fprintf(&b, "  governing statement: %q (baseline %d next hops)\n", ex.Statement, ex.Baseline)
		for _, se := range ex.Sets {
			status := "NOT SATISFIED"
			if se.Satisfied {
				status = "satisfied"
			}
			fmt.Fprintf(&b, "    set %q: matched %d route(s), %d/%d distinct next hops — %s\n",
				se.Name, len(se.MatchedRoutes), se.DistinctNextHops, se.RequiredNextHops, status)
		}
		switch {
		case ex.ChosenSet != "":
			fmt.Fprintf(&b, "  => ACTIVE: path set %q\n", ex.ChosenSet)
		case ex.Native.Present:
			fmt.Fprintf(&b, "  => native fallback, constrained: min-next-hop=%s keep-fib-warm=%v\n",
				mnhString(ex.Native.MinNextHop), ex.Native.KeepFibWarm)
		default:
			b.WriteString("  => native fallback (no sets satisfied)\n")
		}
	}

	hops := sp.FIB().Lookup(prefix)
	if len(hops) == 0 {
		b.WriteString("  FIB: no entry\n")
	} else {
		warm := ""
		if sp.FIB().IsWarm(prefix) {
			warm = "  (WARM: withdrawn from peers but still forwarding)"
		}
		fmt.Fprintf(&b, "  FIB:%s\n", warm)
		for _, h := range hops {
			peer, _ := n.SessionPeer(dev, sessionID(h.ID))
			fmt.Fprintf(&b, "    -> %s (session %s) weight %d\n", peer, h.ID, h.Weight)
		}
	}
	return b.String()
}

// DumpFIB renders a switch's full FIB, sorted by prefix.
func DumpFIB(n *fabric.Network, dev topo.DeviceID) string {
	node := n.Node(dev)
	if node == nil {
		return fmt.Sprintf("no such device %q\n", dev)
	}
	tbl := node.Speaker.FIB()
	st := tbl.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "device %s  FIB: %d prefixes, %d next-hop groups (peak %d, limit %d)\n",
		dev, st.Entries, st.Groups, st.PeakGroups, st.Limit)
	for _, p := range tbl.Prefixes() {
		var hops []string
		for _, h := range tbl.Lookup(p) {
			peer, _ := n.SessionPeer(dev, sessionID(h.ID))
			if peer == "" {
				peer = topo.DeviceID(h.ID)
			}
			hops = append(hops, fmt.Sprintf("%s(w%d)", peer, h.Weight))
		}
		sort.Strings(hops)
		fmt.Fprintf(&b, "  %-18s -> %s\n", p, strings.Join(hops, " "))
	}
	return b.String()
}

func destString(d core.Destination) string {
	if d.IsZero() {
		return "<all>"
	}
	if d.Community != "" {
		return "community:" + d.Community
	}
	return "prefixes:" + strings.Join(d.Prefixes, ",")
}

func sigString(s core.PathSignature) string {
	if s.IsZero() {
		return "<any path>"
	}
	var parts []string
	if s.ASPathRegex != "" {
		parts = append(parts, "as-path~"+s.ASPathRegex)
	}
	if len(s.Communities) > 0 {
		parts = append(parts, "comms="+strings.Join(s.Communities, ","))
	}
	if s.PeerRegex != "" {
		parts = append(parts, "peer~"+s.PeerRegex)
	}
	if s.NextHopRegex != "" {
		parts = append(parts, "next-hop~"+s.NextHopRegex)
	}
	if s.OriginASN != 0 {
		parts = append(parts, fmt.Sprintf("origin-asn=%d", s.OriginASN))
	}
	return strings.Join(parts, " ")
}

func mnhString(m core.MinNextHop) string {
	switch {
	case m.Count > 0 && m.Percent > 0:
		return fmt.Sprintf("max(%d, %.0f%%)", m.Count, m.Percent)
	case m.Percent > 0:
		return fmt.Sprintf("%.0f%%", m.Percent)
	default:
		return fmt.Sprintf("%d", m.Count)
	}
}

func rulesString(rules []core.PrefixRule) string {
	if len(rules) == 0 {
		return "<nothing>"
	}
	var parts []string
	for _, r := range rules {
		if r.MinMaskLength == 0 && r.MaxMaskLength == 0 {
			parts = append(parts, r.Prefix)
		} else {
			parts = append(parts, fmt.Sprintf("%s le %d ge %d", r.Prefix, r.MaxMaskLength, r.MinMaskLength))
		}
	}
	return strings.Join(parts, ", ")
}

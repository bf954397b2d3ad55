// Package centralium is the public facade of the Centralium reproduction:
// a hybrid route-planning framework that combines centralized planning with
// distributed BGP enforcement through Route Planning Abstractions (RPAs),
// after "Centralium: A Hybrid Route-Planning Framework for Large-Scale Data
// Center Network Migrations" (SIGCOMM 2025).
//
// The facade re-exports the key entry points; the implementation lives in
// the internal packages (see DESIGN.md for the architecture):
//
//   - RPA types and evaluation        internal/core
//   - per-switch BGP speakers          internal/bgp
//   - topology builders                internal/topo
//   - the emulated fabric              internal/fabric
//   - traffic evaluation               internal/traffic
//   - traffic engineering              internal/te
//   - the controller stack             internal/controller, nsdb, agent
//   - migration scenarios & planning   internal/migrate
//   - table/figure harnesses           internal/experiments
//
// Quickstart (see examples/quickstart):
//
//	tp := centralium.BuildFabric(centralium.FabricParams{})
//	net := centralium.NewNetwork(tp, centralium.NetworkOptions{Seed: 1})
//	net.OriginateAt(centralium.EBID(0), netip.MustParsePrefix("0.0.0.0/0"),
//	    []string{"BACKBONE_DEFAULT_ROUTE"}, 0)
//	net.Converge()
package centralium

import (
	"centralium/internal/controller"
	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// RPA configuration types (Figure 7 of the paper).
type (
	// RPAConfig is the full per-switch RPA configuration.
	RPAConfig = core.Config
	// PathSelectionStatement overrides native path selection with a
	// priority list of path sets.
	PathSelectionStatement = core.PathSelectionStatement
	// PathSet is one priority entry: a signature plus a MinNextHop gate.
	PathSet = core.PathSet
	// PathSignature identifies a path set by BGP attribute criteria.
	PathSignature = core.PathSignature
	// MinNextHop is a minimum next-hop threshold (absolute or percent).
	MinNextHop = core.MinNextHop
	// RouteAttributeStatement prescribes WCMP weights a priori.
	RouteAttributeStatement = core.RouteAttributeStatement
	// NextHopWeight maps a path signature to a relative weight.
	NextHopWeight = core.NextHopWeight
	// RouteFilterStatement gates prefix exchange per peer.
	RouteFilterStatement = core.RouteFilterStatement
	// PrefixFilter is an allow list of prefix rules.
	PrefixFilter = core.PrefixFilter
	// PrefixRule allows a prefix range with mask-length bounds.
	PrefixRule = core.PrefixRule
	// Destination selects the prefixes a statement applies to.
	Destination = core.Destination
)

// Topology types and builders.
type (
	// Topology is the device/link graph.
	Topology = topo.Topology
	// Device is one switch or router.
	Device = topo.Device
	// DeviceID names a device.
	DeviceID = topo.DeviceID
	// Layer is a horizontal switch layer.
	Layer = topo.Layer
	// FabricParams sizes a production-style fabric.
	FabricParams = topo.FabricParams
)

// NewTopology returns an empty topology for hand-built graphs.
var NewTopology = topo.New

// BuildFabric constructs a five-layer Clos fabric plus backbone (Figure 1).
var BuildFabric = topo.BuildFabric

// EBID names backbone device i.
var EBID = topo.EBID

// Emulation types.
type (
	// Network is the emulated fleet.
	Network = fabric.Network
	// NetworkOptions configures the emulation.
	NetworkOptions = fabric.Options
)

// NewNetwork builds the emulation over a topology.
var NewNetwork = fabric.New

// Controller types.
type (
	// Controller coordinates RPA rollouts.
	Controller = controller.Controller
	// Rollout is one coordinated deployment.
	Rollout = controller.Rollout
	// Intent is a per-device RPA assignment.
	Intent = controller.Intent
	// HealthCheck is a pre/post-deployment verification.
	HealthCheck = controller.HealthCheck
)

// PathEqualizationIntent compiles the Section 4.4.1 equalization app.
var PathEqualizationIntent = controller.PathEqualizationIntent

// CapacityProtectionIntent compiles the Section 4.4.2 protection app.
var CapacityProtectionIntent = controller.CapacityProtectionIntent

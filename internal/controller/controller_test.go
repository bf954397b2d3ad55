package controller

import (
	"encoding/json"
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/nsdb"
	"centralium/internal/te"
	"centralium/internal/topo"
)

const backboneCommunity = "BACKBONE_DEFAULT_ROUTE"

// fabricController wires a controller straight onto an emulated fabric.
func fabricController(t *topo.Topology, n *fabric.Network, db *nsdb.Cluster) *Controller {
	return &Controller{
		Topo: t,
		DB:   db,
		Deploy: func(dev topo.DeviceID, cfg *core.Config) error {
			return n.DeployRPA(dev, cfg)
		},
		Settle: func() { n.Converge() },
	}
}

func TestIntentMergeAndHelpers(t *testing.T) {
	a := Intent{"x": {Version: 1, PathSelection: []core.PathSelectionStatement{{Name: "a"}}}}
	b := Intent{
		"x": {Version: 2, PathSelection: []core.PathSelectionStatement{{Name: "b"}}},
		"y": {Version: 2},
	}
	m := a.Merge(b)
	if len(m) != 2 {
		t.Fatalf("merged devices = %d", len(m))
	}
	if len(m["x"].PathSelection) != 2 {
		t.Fatalf("x statements = %d, want 2", len(m["x"].PathSelection))
	}
	devs := m.Devices()
	if len(devs) != 2 || devs[0] != "x" || devs[1] != "y" {
		t.Fatalf("Devices = %v", devs)
	}
	if m.TotalLOC() <= 0 {
		t.Fatal("TotalLOC = 0")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := Intent{"z": {PathSelection: []core.PathSelectionStatement{{Name: ""}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid intent accepted")
	}
}

func TestWavesOrdering(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	c := &Controller{Topo: tp}
	intent := Intent{}
	for _, l := range []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA} {
		for _, d := range tp.ByLayer(l) {
			intent[d.ID] = &core.Config{}
		}
	}
	// Deployment with backbone origin (altitude 5): FSW (alt 1, dist 4)
	// first, then SSW (dist 3), then FA (dist 2) — bottom-up.
	waves := c.Waves(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()})
	if len(waves) != 3 {
		t.Fatalf("waves = %d", len(waves))
	}
	wantLayers := []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}
	for i, wave := range waves {
		for _, dev := range wave {
			if tp.Device(dev).Layer != wantLayers[i] {
				t.Fatalf("wave %d contains %s (layer %v), want %v", i, dev, tp.Device(dev).Layer, wantLayers[i])
			}
		}
	}
	// Removal reverses: FA first.
	waves = c.Waves(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude(), Removal: true})
	if tp.Device(waves[0][0]).Layer != topo.LayerFA {
		t.Fatalf("removal wave 0 = %v", waves[0])
	}
	// Unknown devices are skipped.
	waves = c.Waves(Rollout{Intent: Intent{"ghost": &core.Config{}}})
	if len(waves) != 0 {
		t.Fatalf("ghost waves = %v", waves)
	}
}

func TestRunDeploysThroughFabric(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{})
	n := fabric.New(tp, fabric.Options{Seed: 21})
	p := netip.MustParsePrefix("0.0.0.0/0")
	n.OriginateAt(topo.EBID(0), p, []string{backboneCommunity}, 0)
	n.Converge()

	db := nsdb.NewCluster(2)
	c := fabricController(tp, n, db)
	intent := PathEqualizationIntent(tp, []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}, backboneCommunity)
	err := c.Run(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Deployments() != len(intent) {
		t.Fatalf("Deployments = %d, want %d", c.Deployments(), len(intent))
	}
	// Every FA now load-balances over the direct and DMAG paths.
	nh := n.NextHopWeights(topo.FAID(0), p)
	if len(nh) != 2 {
		t.Fatalf("FA next hops = %v, want direct + DMAG", nh)
	}
	// No stragglers.
	if s := c.Stragglers(); len(s) != 0 {
		t.Fatalf("stragglers = %v", s)
	}
}

func TestRunHealthChecks(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{})
	n := fabric.New(tp, fabric.Options{Seed: 1})
	c := fabricController(tp, n, nil)
	intent := Intent{topo.FAID(0): &core.Config{Version: 1}}

	failing := HealthCheck{Name: "congestion-free", Check: func() error { return errors.New("link hot") }}
	err := c.Run(Rollout{Intent: intent, Pre: []HealthCheck{failing}})
	if err == nil || !strings.Contains(err.Error(), "congestion-free") {
		t.Fatalf("err = %v, want pre-check failure", err)
	}
	if c.Deployments() != 0 {
		t.Fatal("deployed despite failed pre-check")
	}
	err = c.Run(Rollout{Intent: intent, Post: []HealthCheck{failing}})
	if err == nil || !strings.Contains(err.Error(), "post-deployment") {
		t.Fatalf("err = %v, want post-check failure", err)
	}
}

func TestRunRejectsInvalidIntentAndMissingBackend(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{})
	c := &Controller{Topo: tp}
	if err := c.Run(Rollout{}); err == nil {
		t.Fatal("no backend accepted")
	}
	c.Deploy = func(topo.DeviceID, *core.Config) error { return nil }
	bad := Intent{topo.FAID(0): {PathSelection: []core.PathSelectionStatement{{Name: ""}}}}
	if err := c.Run(Rollout{Intent: bad}); err == nil {
		t.Fatal("invalid intent deployed")
	}
	// Deployment failure propagates.
	c.Deploy = func(topo.DeviceID, *core.Config) error { return errors.New("switch unreachable") }
	good := Intent{topo.FAID(0): &core.Config{}}
	if err := c.Run(Rollout{Intent: good}); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v", err)
	}
}

func TestStragglerDetection(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{})
	db := nsdb.NewCluster(1)
	c := &Controller{Topo: tp, DB: db}
	// Intent published but device never converged to it.
	db.Publish(nsdb.Intended, nsdb.DevicePath(string(topo.FAID(0)), "rpa"), &core.Config{Version: 9})
	s := c.Stragglers()
	if len(s) != 1 {
		t.Fatalf("stragglers = %v", s)
	}
	// No DB: no stragglers.
	if got := (&Controller{Topo: tp}).Stragglers(); got != nil {
		t.Fatalf("stragglers without DB = %v", got)
	}
}

func TestAppsGenerateValidIntent(t *testing.T) {
	tp := topo.BuildFabric(topo.FabricParams{})
	ssws := devIDs(tp.ByLayer(topo.LayerSSW))
	fauus := devIDs(tp.ByLayer(topo.LayerFAUU))
	dest := core.Destination{Community: "SVC"}

	apps := map[string]Intent{
		"path-equalization":   PathEqualizationIntent(tp, []topo.Layer{topo.LayerSSW}, backboneCommunity),
		"capacity-protection": CapacityProtectionIntent(ssws, backboneCommunity, 75, true, 4),
		"traffic-engineering": TrafficEngineeringIntent(dest, map[topo.DeviceID][]te.Path{fauus[0]: {{ID: "eb.0", CapacityGbps: 100}, {ID: "eb.1", CapacityGbps: 50}}}, 0),
		"static-wcmp":         StaticWCMPIntent(fauus, dest),
		"boundary-filter":     BoundaryFilterIntent(fauus, "^eb", []core.PrefixRule{{Prefix: "0.0.0.0/0"}}),
		"egress-filter":       EgressFilterIntent(fauus, "^eb", []core.PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 8, MaxMaskLength: 16}}),
		"drain-weight":        DrainWeightIntent(ssws, dest, "^fadu\\.g0"),
		"primary-backup":      PrimaryBackupIntent(ssws, dest, "^fadu\\.g0", "^fadu\\.g1"),
		"anycast-stability":   AnycastStabilityIntent(ssws, "ANYCAST_VIP", 2),
		"proximity":           ProximityIntent(ssws, dest, 4200000001),
		"service-isolation":   ServiceIsolationIntent(fauus, "^eb", []core.PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 8, MaxMaskLength: 24}}),
		"origin-pinning":      OriginPinningIntent(ssws, dest, []uint32{4200000001, 4200000002}),
	}
	if len(apps) < 10 {
		t.Fatalf("only %d apps", len(apps))
	}
	for name, intent := range apps {
		if len(intent) == 0 {
			t.Errorf("app %s produced empty intent", name)
			continue
		}
		if err := intent.Validate(); err != nil {
			t.Errorf("app %s intent invalid: %v", name, err)
		}
		if intent.TotalLOC() <= 0 {
			t.Errorf("app %s LOC = 0", name)
		}
	}
}

func TestDeviceRegex(t *testing.T) {
	re := DeviceRegex("fadu.g0.0", "fadu.g1.0")
	if re != `^(fadu\.g0\.0|fadu\.g1\.0)$` {
		t.Fatalf("DeviceRegex = %q", re)
	}
	sig := core.PathSignature{NextHopRegex: re}
	cfg := core.Config{PathSelection: []core.PathSelectionStatement{{
		Name: "x", PathSets: []core.PathSet{{Signature: sig}},
	}}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("generated regex invalid: %v", err)
	}
}

func TestPrimaryBackupBehavior(t *testing.T) {
	// End-to-end: primary preferred, backup engaged when primary drains.
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "primary", Layer: topo.LayerFADU})
	tp.AddDevice(topo.Device{ID: "backup", Layer: topo.LayerFADU})
	tp.AddDevice(topo.Device{ID: "origin", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	tp.AddLink("leaf", "primary", 100)
	tp.AddLink("leaf", "backup", 100)
	tp.AddLink("primary", "origin", 100)
	tp.AddLink("backup", "origin", 100)
	n := fabric.New(tp, fabric.Options{Seed: 2})
	p := netip.MustParsePrefix("0.0.0.0/0")
	n.OriginateAt("origin", p, []string{"SVC"}, 0)
	n.Converge()

	c := fabricController(tp, n, nil)
	intent := PrimaryBackupIntent([]topo.DeviceID{"leaf"}, core.Destination{Community: "SVC"}, "^primary$", "^backup$")
	if err := c.Run(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude()}); err != nil {
		t.Fatal(err)
	}
	nh := n.NextHopWeights("leaf", p)
	if len(nh) != 1 || nh["primary"] == 0 {
		t.Fatalf("next hops = %v, want primary only", nh)
	}
	n.SetDrained("primary", true)
	n.Converge()
	nh = n.NextHopWeights("leaf", p)
	if len(nh) != 1 || nh["backup"] == 0 {
		t.Fatalf("next hops after drain = %v, want backup", nh)
	}
}

func devIDs(devs []*topo.Device) []topo.DeviceID {
	out := make([]topo.DeviceID, len(devs))
	for i, d := range devs {
		out[i] = d.ID
	}
	return out
}

// TestVersionMonotonic pins the version contract. It used to assert a
// process-wide counter only ever grew; that counter made an intent's bytes
// depend on how many configs the process had generated before (and raced
// when two scenario bases were built at once), so it is gone: a generator
// tags the configs of the one Intent it returns 1..n in generation order —
// still monotonic, but within the intent — and generating the same intent
// again, or from several goroutines at once, yields the same bytes.
func TestVersionMonotonic(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	layers := []topo.Layer{topo.LayerFSW, topo.LayerSSW, topo.LayerFA}
	render := func() string {
		data, err := json.Marshal(PathEqualizationIntent(tp, layers, "BACKBONE"))
		if err != nil {
			t.Error(err)
		}
		return string(data)
	}

	intent := PathEqualizationIntent(tp, layers, "BACKBONE")
	var want int64
	for _, l := range layers {
		for _, d := range tp.ByLayer(l) {
			want++
			if got := intent[d.ID].Version; got != want {
				t.Fatalf("%s tagged version %d, want %d (1..n in generation order)", d.ID, got, want)
			}
		}
	}

	first := render()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := render(); got != first {
				t.Errorf("regenerated intent differs:\n%s\nvs\n%s", got, first)
			}
		}()
	}
	wg.Wait()

	// A map-driven generator tags in sorted device order, not map order.
	te1 := TrafficEngineeringIntent(core.Destination{Community: "D"}, map[topo.DeviceID][]te.Path{
		"b": {{ID: "x", CapacityGbps: 100}}, "a": {{ID: "y", CapacityGbps: 100}}, "c": {{ID: "z", CapacityGbps: 100}},
	}, 0)
	for i, d := range te1.Devices() {
		if te1[d].Version != int64(i+1) {
			t.Fatalf("TE intent: %s tagged %d, want %d", d, te1[d].Version, i+1)
		}
	}
}

func TestSlowRollGate(t *testing.T) {
	tp := topo.BuildFig10(topo.Fig10Params{FSWs: 2, SSWs: 2, FAs: 2})
	db := nsdb.NewCluster(1)
	// A backend that reports truth: it updates current state for every
	// device except one silent straggler.
	straggler := topo.SSWID(0, 1)
	c := &Controller{
		Topo:                  tp,
		DB:                    db,
		BackendUpdatesCurrent: true,
		Deploy: func(dev topo.DeviceID, cfg *core.Config) error {
			if dev == straggler {
				return nil // "succeeds" but never converges
			}
			db.Publish(nsdb.Current, nsdb.DevicePath(string(dev), "rpa"), cfg)
			return nil
		},
	}
	intent := Intent{}
	for _, l := range []topo.Layer{topo.LayerFSW, topo.LayerSSW} {
		for _, d := range tp.ByLayer(l) {
			intent[d.ID] = &core.Config{Version: int64(len(intent) + 1)}
		}
	}
	// Gate at 10%: one straggler among four devices (25%) must trip it.
	err := c.Run(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude(),
		MaxStragglerFraction: 0.1})
	if err == nil || !strings.Contains(err.Error(), "slow-roll gate") {
		t.Fatalf("err = %v, want slow-roll gate trip", err)
	}
	// The gate stopped the rollout before the SSW wave... or at it; either
	// way not all devices were deployed plus the run errored early.
	if c.Deployments() == 0 {
		t.Fatal("nothing deployed")
	}
	// Generous gate (60%): passes the gate but the final consistency check
	// still reports the straggler.
	c2 := &Controller{Topo: tp, DB: nsdb.NewCluster(1), BackendUpdatesCurrent: true,
		Deploy: c.Deploy}
	// rewire deploy to c2's DB
	db2 := c2.DB
	c2.Deploy = func(dev topo.DeviceID, cfg *core.Config) error {
		if dev == straggler {
			return nil
		}
		db2.Publish(nsdb.Current, nsdb.DevicePath(string(dev), "rpa"), cfg)
		return nil
	}
	err = c2.Run(Rollout{Intent: intent, OriginAltitude: topo.LayerEB.Altitude(),
		MaxStragglerFraction: 0.6})
	if err == nil || !strings.Contains(err.Error(), "stragglers after rollout") {
		t.Fatalf("err = %v, want final straggler report", err)
	}
}

package agent

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"centralium/internal/core"
	"centralium/internal/metrics"
	"centralium/internal/nsdb"
)

// DeviceState is what the agent collects from a switch (the "current
// state" it populates into NSDB).
type DeviceState struct {
	Device     string `json:"device"`
	RPAVersion int64  `json:"rpa_version"`
	// RPA is the deployed config as reported by the switch.
	RPA *core.Config `json:"rpa,omitempty"`
	// FIBEntries and NHGroups summarize forwarding health.
	FIBEntries int  `json:"fib_entries"`
	NHGroups   int  `json:"nh_groups"`
	Drained    bool `json:"drained"`
}

// Agent is one Switch Agent task: it reconciles intended state from NSDB
// onto a set of switches through an RPC client, and publishes collected
// current state back (the two continuous data flows of Figure 8).
type Agent struct {
	// Name identifies the task (for Figure 11 metering).
	Name string
	// DB is the NSDB cluster the agent publishes to and reads from.
	DB *nsdb.Cluster
	// Client reaches the switch endpoint.
	Client *Client
	// Devices is the shard of switches this agent manages.
	Devices []string
	// Meter, when set, accounts CPU busy time and memory (Figure 11).
	Meter *metrics.TaskMeter
	// DeployLatencies, when set, records per-deployment RPC time (Figure 12).
	DeployLatencies *metrics.Sample

	deploys atomic.Int64
	polls   atomic.Int64
}

// Deploys returns the number of RPA deployments performed.
func (a *Agent) Deploys() int { return int(a.deploys.Load()) }

// Polls returns the number of state collections performed.
func (a *Agent) Polls() int { return int(a.polls.Load()) }

// RPAPath is the NSDB location of a device's RPA config; the intended and
// current views use the same path, so OutOfSync can compare them directly.
func RPAPath(device string) string { return nsdb.DevicePath(device, "rpa") }

func statePath(device string) string { return nsdb.DevicePath(device, "state") }

// SetIntendedRPA is the application-side write: it publishes a device's
// intended RPA config into NSDB (applications call this; the agent picks
// it up on its next reconcile pass).
func SetIntendedRPA(db *nsdb.Cluster, device string, cfg *core.Config) {
	db.Publish(nsdb.Intended, RPAPath(device), cfg)
}

// ClearIntendedRPA removes a device's intended RPA. The agent reconciles
// the removal by deploying an empty config, restoring native BGP behavior
// with no policy residue (§4.4.1: "the RPA can just be removed").
func ClearIntendedRPA(db *nsdb.Cluster, device string) {
	db.PublishDelete(nsdb.Intended, RPAPath(device))
}

// IntendedRPA reads a device's intended config from NSDB.
func IntendedRPA(db *nsdb.Cluster, device string) (*core.Config, bool) {
	v, ok, err := db.Read(nsdb.Intended, RPAPath(device))
	if err != nil || !ok {
		return nil, false
	}
	return coerceConfig(v)
}

// CurrentRPA reads a device's last collected config from NSDB.
func CurrentRPA(db *nsdb.Cluster, device string) (*core.Config, bool) {
	v, ok, err := db.Read(nsdb.Current, RPAPath(device))
	if err != nil || !ok {
		return nil, false
	}
	return coerceConfig(v)
}

// coerceConfig handles both *core.Config values and the generic map form
// that survives snapshot/JSON round trips.
func coerceConfig(v any) (*core.Config, bool) {
	if cfg, ok := v.(*core.Config); ok {
		return cfg, true
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	cfg, err := core.Unmarshal(data)
	if err != nil {
		return nil, false
	}
	return cfg, true
}

// ReconcileOnce makes one pass over the agent's shard: for every device
// whose intended RPA differs from current, deploy it and update current
// state. It returns the devices it deployed to.
func (a *Agent) ReconcileOnce() ([]string, error) {
	var touched []string
	var firstErr error
	work := func() {
		for _, dev := range a.Devices {
			want, ok := IntendedRPA(a.DB, dev)
			have, haveOK := CurrentRPA(a.DB, dev)
			if !ok {
				// No intent (or intent removed): a device still carrying a
				// non-empty config gets an empty one — RPA removal leaves
				// no residue.
				if !haveOK || have.IsEmpty() {
					continue
				}
				want = &core.Config{Version: have.Version + 1}
			} else if haveOK && nsdb.Equal(want, have) {
				continue
			}
			if err := a.deploy(dev, want); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			touched = append(touched, dev)
		}
	}
	if a.Meter != nil {
		a.Meter.Section(work)
	} else {
		work()
	}
	return touched, firstErr
}

// deploy pushes one config over RPC, records the latency, and publishes
// the new current state.
func (a *Agent) deploy(device string, cfg *core.Config) error {
	data, err := cfg.Marshal()
	if err != nil {
		return fmt.Errorf("agent: marshal config for %s: %w", device, err)
	}
	start := time.Now()
	if _, err := a.Client.Call("deploy_rpa", device, data); err != nil {
		return fmt.Errorf("agent: deploy to %s: %w", device, err)
	}
	if a.DeployLatencies != nil {
		a.DeployLatencies.AddDuration(time.Since(start))
	}
	a.deploys.Add(1)
	a.DB.Publish(nsdb.Current, RPAPath(device), cfg)
	return nil
}

// CollectOnce polls every device in the shard and publishes its state into
// the current view.
func (a *Agent) CollectOnce() error {
	var firstErr error
	work := func() {
		for _, dev := range a.Devices {
			body, err := a.Client.Call("collect_state", dev, nil)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			var st DeviceState
			if err := json.Unmarshal(body, &st); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("agent: bad state from %s: %w", dev, err)
				}
				continue
			}
			a.polls.Add(1)
			a.DB.Publish(nsdb.Current, statePath(dev), st)
		}
	}
	if a.Meter != nil {
		a.Meter.Section(work)
	} else {
		work()
	}
	if a.Meter != nil && a.DB != nil {
		if l := a.DB.Leader(); l != nil {
			a.Meter.SetHeapBytes(l.Store.SizeBytes())
		}
	}
	return firstErr
}

// CollectedState reads a device's last collected state from NSDB.
func CollectedState(db *nsdb.Cluster, device string) (DeviceState, bool) {
	v, ok, err := db.Read(nsdb.Current, statePath(device))
	if err != nil || !ok {
		return DeviceState{}, false
	}
	switch st := v.(type) {
	case DeviceState:
		return st, true
	default:
		data, err := json.Marshal(v)
		if err != nil {
			return DeviceState{}, false
		}
		var out DeviceState
		if json.Unmarshal(data, &out) != nil {
			return DeviceState{}, false
		}
		return out, true
	}
}

package agent

import (
	"context"
	"strings"

	"centralium/internal/core"
	"centralium/internal/nsdb"
)

// Watch runs the agent's reactive mode: it subscribes to intended-state
// changes in NSDB and reconciles affected devices as events arrive — the
// southbound continuous data flow of Figure 8 ("when instantiating the
// publisher module, services are actually subscribing to their local
// intended state for any changes"). An initial full reconcile pass covers
// intent published before the subscription existed. Watch blocks until ctx
// is cancelled; deployment errors are delivered to onErr (which may be
// nil) and do not stop the loop, matching the agent's keep-reconciling
// posture.
func (a *Agent) Watch(ctx context.Context, onErr func(error)) error {
	leader := a.DB.Leader()
	if leader == nil {
		return nsdb.ErrNoLeader
	}
	managed := make(map[string]bool, len(a.Devices))
	for _, d := range a.Devices {
		managed[d] = true
	}

	events, cancel := leader.Store.Subscribe(nsdb.Intended, "/devices/*/rpa", 256)
	defer cancel()

	report := func(err error) {
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
	// Catch up on intent that predates the subscription.
	_, err := a.ReconcileOnce()
	report(err)

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev, ok := <-events:
			if !ok {
				return nil // store shut the subscription down
			}
			dev := deviceOf(ev.Path)
			if dev == "" || !managed[dev] {
				continue
			}
			var want *core.Config
			if ev.Deleted {
				// Intent removal: push an empty config so the switch drops
				// back to native BGP.
				have, haveOK := CurrentRPA(a.DB, dev)
				if !haveOK || have.IsEmpty() {
					continue
				}
				want = &core.Config{Version: have.Version + 1}
			} else {
				var ok bool
				want, ok = coerceConfig(ev.Value)
				if !ok {
					continue
				}
			}
			if have, haveOK := CurrentRPA(a.DB, dev); haveOK && nsdb.Equal(want, have) {
				continue
			}
			report(a.deploy(dev, want))
		}
	}
}

// deviceOf extracts the device name from "/devices/<dev>/rpa".
func deviceOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) != 3 || parts[0] != "devices" || parts[2] != "rpa" {
		return ""
	}
	return parts[1]
}

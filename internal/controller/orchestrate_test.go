package controller

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"

	"centralium/internal/core"
	"centralium/internal/fabric"
	"centralium/internal/topo"
)

// TestOrchestratedChangeOrdering demonstrates the §7.1 dependency: an RPA
// keyed on a community only works once the base policy attaches that
// community at origination.
func TestOrchestratedChangeOrdering(t *testing.T) {
	tp := topo.New()
	tp.AddDevice(topo.Device{ID: "origin", Layer: topo.LayerEB})
	tp.AddDevice(topo.Device{ID: "mid", Layer: topo.LayerFADU})
	tp.AddDevice(topo.Device{ID: "leaf", Layer: topo.LayerSSW})
	tp.AddLink("origin", "leaf", 100)
	tp.AddLink("origin", "mid", 100)
	tp.AddLink("mid", "leaf", 100)
	n := fabric.New(tp, fabric.Options{Seed: 1})
	p := netip.MustParsePrefix("0.0.0.0/0")
	// Initially originated WITHOUT the community the RPA needs.
	n.OriginateAt("origin", p, nil, 0)
	n.Converge()

	rpa := Intent{"leaf": {
		Version: 1,
		PathSelection: []core.PathSelectionStatement{{
			Name:        "equalize",
			Destination: core.Destination{Community: "NEW_TAG"},
			PathSets: []core.PathSet{{
				Signature: core.PathSignature{Communities: []string{"NEW_TAG"}},
			}},
		}},
	}}
	c := &Controller{
		Topo:   tp,
		Deploy: func(d topo.DeviceID, cfg *core.Config) error { return n.DeployRPA(d, cfg) },
		Settle: func() { n.Converge() },
	}

	// Uncoordinated (RPA only, base policy missing): the RPA matches
	// nothing and leaf keeps native single-path selection.
	if err := c.Run(Rollout{Intent: rpa}); err != nil {
		t.Fatal(err)
	}
	if got := len(n.NextHopWeights("leaf", p)); got != 1 {
		t.Fatalf("leaf paths without base policy = %d, want 1 (RPA inert)", got)
	}

	// Orchestrated: base policy (re-originate with the community) first,
	// verified, then the RPA — now both paths are selected.
	err := c.ExecuteCtx(context.Background(), OrchestratedChange{
		Name: "tag-and-equalize",
		ApplyBasePolicy: func() error {
			n.OriginateAt("origin", p, []string{"NEW_TAG"}, 0)
			return nil
		},
		VerifyBasePolicy: func() error {
			for _, cand := range n.Speaker("leaf").Candidates(p) {
				if !cand.HasCommunity("NEW_TAG") {
					return errors.New("community not yet visible at leaf")
				}
			}
			return nil
		},
		Rollout: Rollout{Intent: rpa},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.NextHopWeights("leaf", p)); got != 2 {
		t.Fatalf("leaf paths after orchestration = %d, want 2", got)
	}
}

func TestOrchestratedChangeErrors(t *testing.T) {
	c := &Controller{Deploy: func(topo.DeviceID, *core.Config) error { return nil }}
	err := c.ExecuteCtx(context.Background(), OrchestratedChange{
		Name:            "x",
		ApplyBasePolicy: func() error { return errors.New("push failed") },
	})
	if err == nil || !strings.Contains(err.Error(), "base policy") {
		t.Fatalf("err = %v", err)
	}
	err = c.ExecuteCtx(context.Background(), OrchestratedChange{
		Name:             "y",
		VerifyBasePolicy: func() error { return errors.New("not converged") },
	})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("err = %v", err)
	}
}

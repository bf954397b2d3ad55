package controller

import (
	"context"
	"fmt"
)

// OrchestratedChange implements the Section 7.1 "unified routing change
// orchestration": RPAs identify routes through attributes that the *base*
// BGP policy sets (e.g. the community attached at origination), so the two
// must deploy in a coordinated order — base policy first, verified, then
// the RPA that depends on it; removal in reverse. Uncoordinated deployment
// "can lead to unexpected routing behavior": an RPA whose destination
// community does not exist yet silently matches nothing.
type OrchestratedChange struct {
	// Name for error messages.
	Name string

	// ApplyBasePolicy performs the base BGP policy change (community
	// tagging, origination changes). It must be idempotent.
	ApplyBasePolicy func() error

	// VerifyBasePolicy confirms the base change took effect fleet-wide
	// before the dependent RPA deploys (the paper's pre-deployment
	// verification); nil skips verification.
	VerifyBasePolicy func() error

	// RemoveBasePolicy undoes ApplyBasePolicy. When set, ExecuteCtx calls it
	// if the change fails after the base policy was applied — failed
	// verification or a failed rollout — so an aborted change never leaves
	// the base policy dangling with no RPA depending on it (the reverse of
	// the coordinated deploy order). It must be idempotent; nil keeps the
	// historical leave-in-place behavior.
	RemoveBasePolicy func() error

	// Rollout is the dependent RPA deployment.
	Rollout Rollout
}

// ExecuteCtx runs the change in the safe order under a context: base
// policy, settle, verification, then the dependent rollout (which checks
// the context before every device). Failure after the base policy is
// applied triggers RemoveBasePolicy (when set) followed by a settle, so
// the fabric returns to its pre-change routing state; pair it with
// Rollout.UnwindOnFailure for full cleanup of a partially-deployed RPA.
func (c *Controller) ExecuteCtx(ctx context.Context, oc OrchestratedChange) error {
	applied := false
	// cleanup removes the dangling base policy after a post-apply failure,
	// folding a removal error into the change's error.
	cleanup := func(err error) error {
		if !applied || oc.RemoveBasePolicy == nil {
			return err
		}
		if rerr := oc.RemoveBasePolicy(); rerr != nil {
			return fmt.Errorf("%w (base policy removal failed: %v)", err, rerr)
		}
		if c.Settle != nil {
			c.Settle()
		}
		return fmt.Errorf("%w (base policy removed)", err)
	}
	if oc.ApplyBasePolicy != nil {
		if err := oc.ApplyBasePolicy(); err != nil {
			return fmt.Errorf("controller: %s: base policy: %w", oc.Name, err)
		}
		applied = true
	}
	if c.Settle != nil {
		c.Settle()
	}
	if oc.VerifyBasePolicy != nil {
		if err := oc.VerifyBasePolicy(); err != nil {
			return cleanup(fmt.Errorf("controller: %s: base policy verification: %w", oc.Name, err))
		}
	}
	if err := c.RunCtx(ctx, oc.Rollout); err != nil {
		return cleanup(fmt.Errorf("controller: %s: %w", oc.Name, err))
	}
	return nil
}

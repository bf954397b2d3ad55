package core

import (
	"fmt"
	"math"
)

// MinNextHop is a minimum-capacity threshold on a set of next hops. It can
// be an absolute count, a percentage of a baseline (the switch's configured
// next-hop count for the destination, e.g. "BgpNativeMinNextHop: 75%"), or
// both; the effective requirement is the maximum of the two. The zero value
// imposes no constraint.
type MinNextHop struct {
	Count   int     `json:"count,omitempty"`
	Percent float64 `json:"percent,omitempty"` // of the evaluation baseline
}

// IsZero reports whether the threshold imposes no constraint.
func (m MinNextHop) IsZero() bool { return m.Count == 0 && m.Percent == 0 }

// valid reports whether the threshold is in range; a NaN percentage is not.
func (m MinNextHop) valid() bool { return m.Count >= 0 && m.Percent >= 0 && m.Percent <= 100 }

// Required returns the effective minimum next-hop count given a baseline
// (the number of next hops the switch would have at full health).
func (m MinNextHop) Required(baseline int) int {
	req := m.Count
	if m.Percent > 0 {
		pct := int(math.Ceil(m.Percent / 100 * float64(baseline)))
		if pct > req {
			req = pct
		}
	}
	return req
}

// PathSet is one entry in a PathSelection statement's priority list: a group
// of BGP paths identified by a common signature, optionally gated by a
// minimum next-hop count (Section 4.3).
type PathSet struct {
	Name       string        `json:"name,omitempty"`
	Signature  PathSignature `json:"signature"`
	MinNextHop MinNextHop    `json:"min_next_hop,omitempty"`
}

// PathSelectionStatement is one statement of a PathSelectionRpa (Figure 7a):
// for routes toward Destination, walk PathSets in priority order and select
// all routes of the first set that matches enough active routes. If no set
// matches, fall back to native BGP selection, optionally constrained by
// BgpNativeMinNextHop.
type PathSelectionStatement struct {
	Name        string      `json:"name"`
	Destination Destination `json:"destination"`
	PathSets    []PathSet   `json:"path_sets,omitempty"`

	// BgpNativeMinNextHop constrains the *native* selection fallback: if
	// the natively selected multipath set is smaller than this threshold,
	// the route must be withdrawn from peers (there is nothing to fall
	// back to).
	BgpNativeMinNextHop MinNextHop `json:"bgp_native_min_next_hop,omitempty"`

	// ExpectedNextHops, when positive, is the full-health next-hop count
	// percentage thresholds are evaluated against. The controller fills it
	// from its topology view; without it the switch falls back to its
	// observed high-water count. The Figure 14 SEV hinges on this being
	// configured: a switch that has only ever seen one next hop cannot
	// otherwise know it is below 75% of full health.
	ExpectedNextHops int `json:"expected_next_hops,omitempty"`

	// KeepFibWarmIfMnhViolated keeps the forwarding entries installed when
	// BgpNativeMinNextHop forces a withdrawal, so in-flight packets are not
	// dropped. Section 7.2's SEV shows why setting this carelessly is
	// dangerous.
	KeepFibWarmIfMnhViolated bool `json:"keep_fib_warm_if_mnh_violated,omitempty"`
}

// SelectionDecision is the outcome of evaluating a PathSelection statement
// over the candidate routes for one prefix.
type SelectionDecision struct {
	// Selected holds indices (into the candidate slice) of routes chosen
	// for forwarding. Empty when UsedNative is true (the caller runs its
	// native algorithm) or when Withdraw is set with no warm FIB.
	Selected []int

	// MatchedSet names the path set that matched; empty on native fallback.
	MatchedSet string

	// UsedNative is true when no path set matched and the caller must run
	// native BGP selection (then apply ApplyNativeConstraint).
	UsedNative bool
}

// evalStatement is the compiled form of a PathSelectionStatement.
type evalStatement struct {
	src  *PathSelectionStatement
	sets []*compiledSignature
}

// Evaluator evaluates a switch's deployed RPAs: a Program, which it may
// share with any number of other evaluators, and the match cache, which is
// this switch's alone. It is not safe for concurrent use — the emulated
// speaker is single-threaded, as is a BGP daemon's decision process.
type Evaluator struct {
	prog  *Program
	cache *Cache
}

// NewEvaluator compiles a Config into an Evaluator. It returns an error if
// any regex fails to compile or the config is structurally invalid.
func NewEvaluator(cfg *Config) (*Evaluator, error) {
	p, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return p.NewEvaluator(), nil
}

// Program returns the compiled program the evaluator runs.
func (e *Evaluator) Program() *Program { return e.prog }

// Cache returns the evaluator's statement cache (for stats and tests).
func (e *Evaluator) Cache() *Cache { return e.cache }

// HasPathSelection reports whether any PathSelection statement applies to
// the route; used by speakers to skip work for unaffected prefixes.
func (e *Evaluator) HasPathSelection(r *RouteAttrs) bool {
	return e.findStatement(r) != nil
}

// HasRouteAttribute reports whether any RouteAttribute statement's
// destination covers the route, ignoring expiry; speakers skip the copy
// AssignWeights needs when none does.
func (e *Evaluator) HasRouteAttribute(r *RouteAttrs) bool {
	for _, es := range e.prog.routeAtt {
		if es.src.Destination.Matches(r) {
			return true
		}
	}
	return false
}

// findStatement returns the first PathSelection statement whose destination
// matches the route, or nil.
func (e *Evaluator) findStatement(r *RouteAttrs) *evalStatement {
	for _, es := range e.prog.pathSel {
		if es.src.Destination.Matches(r) {
			return es
		}
	}
	return nil
}

// NativeConstraint captures a statement's native-fallback policy so the
// caller can enforce it after running native selection.
type NativeConstraint struct {
	MinNextHop  MinNextHop
	KeepFibWarm bool
	Present     bool // false when no statement applies
	// Expected overrides the caller's observed baseline when positive.
	Expected int
}

// Baseline resolves the effective baseline: the statement's configured
// full-health count when present, else the caller's observed value.
func (nc NativeConstraint) Baseline(observed int) int {
	if nc.Expected > 0 {
		return nc.Expected
	}
	return observed
}

// NativeConstraintFor returns the native-selection constraint of the first
// statement matching the route.
func (e *Evaluator) NativeConstraintFor(r *RouteAttrs) NativeConstraint {
	es := e.findStatement(r)
	if es == nil {
		return NativeConstraint{}
	}
	return NativeConstraint{
		MinNextHop:  es.src.BgpNativeMinNextHop,
		KeepFibWarm: es.src.KeepFibWarmIfMnhViolated,
		Present:     true,
		Expected:    es.src.ExpectedNextHops,
	}
}

// SelectPaths runs the priority-based Path Selection algorithm (Section 4.3)
// over the candidate routes of one prefix. baseline is the next-hop count
// the switch would have at full health for this destination (used by
// percentage thresholds). The returned decision either carries an explicit
// selection or directs the caller to native selection.
//
// Candidates must all be routes for the same prefix; the first statement
// whose destination matches candidate 0 governs.
func (e *Evaluator) SelectPaths(candidates []RouteAttrs, baseline int) SelectionDecision {
	if len(candidates) == 0 {
		return SelectionDecision{UsedNative: true}
	}
	es := e.findStatement(&candidates[0])
	if es == nil {
		return SelectionDecision{UsedNative: true}
	}
	if es.src.ExpectedNextHops > 0 {
		baseline = es.src.ExpectedNextHops
	}
	stmtID := es.src.Name
	// Walk the priority list; first set with enough matching routes wins.
	var matched []int
	for si, cs := range es.sets {
		matched = matched[:0]
		for ri := range candidates {
			if e.cachedMatch(stmtID, si, cs, &candidates[ri]) {
				matched = append(matched, ri)
			}
		}
		// Distinct next hops, not raw route count, satisfy MinNextHop.
		need := es.src.PathSets[si].MinNextHop.Required(baseline)
		if len(matched) > 0 && distinctNextHops(candidates, matched) >= need {
			return SelectionDecision{
				Selected:   append([]int(nil), matched...),
				MatchedSet: setName(es.src.PathSets[si], si),
			}
		}
	}
	return SelectionDecision{UsedNative: true}
}

func setName(ps PathSet, i int) string {
	if ps.Name != "" {
		return ps.Name
	}
	return fmt.Sprintf("set-%d", i)
}

func distinctNextHops(candidates []RouteAttrs, idx []int) int {
	if len(idx) <= 1 {
		return len(idx)
	}
	seen := make(map[string]struct{}, len(idx))
	for _, i := range idx {
		seen[candidates[i].NextHop] = struct{}{}
	}
	return len(seen)
}

// cachedMatch wraps compiledSignature.matches with the per-route statement
// cache (Table 2 benchmarks hit and miss costs).
func (e *Evaluator) cachedMatch(stmtID string, setIdx int, cs *compiledSignature, r *RouteAttrs) bool {
	key := CacheKey{Statement: stmtID, Set: setIdx, Route: r.Fingerprint()}
	if v, ok := e.cache.Get(key); ok {
		return v
	}
	v := cs.matches(r)
	e.cache.Put(key, v)
	return v
}

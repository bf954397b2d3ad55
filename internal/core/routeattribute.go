package core

// NextHopWeight maps a path set (by signature) to a relative WCMP weight
// (Figure 7b).
type NextHopWeight struct {
	Signature PathSignature `json:"signature"`
	Weight    int           `json:"weight"`
}

// RouteAttributeStatement prescribes the desired traffic distribution ratio
// among paths toward a destination, a priori and asynchronously (Section
// 4.3). When it applies, the switch ignores peer-advertised link-bandwidth
// and uses these weights, which eliminates the transient next-hop-group
// explosion of Section 3.4.
type RouteAttributeStatement struct {
	Name        string      `json:"name"`
	Destination Destination `json:"destination"`

	NextHopWeights []NextHopWeight `json:"next_hop_weights"`

	// DefaultWeight applies to selected routes not matched by any entry;
	// zero means such routes keep weight 1.
	DefaultWeight int `json:"default_weight,omitempty"`

	// ExpiresAt invalidates the statement at the given emulation clock
	// value (nanoseconds); BGP then falls back to its native distribution
	// (ECMP or distributed WCMP). Zero means never.
	ExpiresAt int64 `json:"expires_at,omitempty"`
}

type evalAttrStatement struct {
	src  *RouteAttributeStatement
	sigs []*compiledSignature
}

// WeightDecision is the outcome of Route Attribute evaluation for one
// prefix's selected routes.
type WeightDecision struct {
	// Applied is false when no statement matched (or it expired); the
	// caller uses its native distribution.
	Applied bool

	// Weights has one entry per input route when Applied.
	Weights []int

	// Statement names the statement applied.
	Statement string
}

// AssignWeights evaluates Route Attribute RPAs over the selected routes of
// one prefix at emulation time now. Routes must share a prefix; the first
// unexpired statement whose destination matches route 0 governs.
func (e *Evaluator) AssignWeights(routes []RouteAttrs, now int64) WeightDecision {
	if len(routes) == 0 {
		return WeightDecision{}
	}
	for _, es := range e.prog.routeAtt {
		if es.src.ExpiresAt != 0 && now >= es.src.ExpiresAt {
			continue
		}
		if !es.src.Destination.Matches(&routes[0]) {
			continue
		}
		weights := make([]int, len(routes))
		for ri := range routes {
			w := es.src.DefaultWeight
			if w <= 0 {
				w = 1
			}
			for si, cs := range es.sigs {
				if cs.matches(&routes[ri]) {
					w = es.src.NextHopWeights[si].Weight
					break
				}
			}
			if w < 0 {
				w = 0
			}
			weights[ri] = w
		}
		return WeightDecision{Applied: true, Weights: weights, Statement: es.src.Name}
	}
	return WeightDecision{}
}

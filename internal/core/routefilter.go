package core

import (
	"fmt"
	"net/netip"
	"regexp"
)

// PrefixRule allows prefixes contained in Prefix whose mask length lies in
// [MinMaskLength, MaxMaskLength]. MaxMaskLength guards against leaking more
// specifics that would overload switch forwarding resources (Section 4.3).
type PrefixRule struct {
	Prefix        string `json:"prefix"` // e.g. "10.0.0.0/8"
	MinMaskLength int    `json:"min_mask_length,omitempty"`
	MaxMaskLength int    `json:"max_mask_length,omitempty"` // 0 = Prefix.Bits()
}

// PrefixFilter is an allow list: a route passes if any rule admits it. An
// empty rule list denies everything (the filter is an explicit allow list).
type PrefixFilter struct {
	Rules []PrefixRule `json:"rules"`
}

// RouteFilterStatement gates route exchange with peers matched by
// PeerSignature (Figure 7c). Ingress applies to routes received; Egress to
// routes advertised. A nil filter leaves that direction unconstrained.
type RouteFilterStatement struct {
	Name          string        `json:"name"`
	PeerSignature string        `json:"peer_signature"` // regex on peer name; empty = all peers
	Ingress       *PrefixFilter `json:"ingress,omitempty"`
	Egress        *PrefixFilter `json:"egress,omitempty"`
}

type compiledRule struct {
	prefix   netip.Prefix
	min, max int
}

type compiledFilter struct {
	rules []compiledRule
}

type evalFilterStatement struct {
	peer    *regexp.Regexp // nil = all peers
	ingress *compiledFilter
	egress  *compiledFilter
}

func compilePrefixFilter(f *PrefixFilter, stmt string) (*compiledFilter, error) {
	if f == nil {
		return nil, nil
	}
	cf := &compiledFilter{}
	for i, r := range f.Rules {
		p, err := netip.ParsePrefix(r.Prefix)
		if err != nil {
			return nil, fmt.Errorf("core: filter %q rule %d: %w", stmt, i, err)
		}
		min, max := r.MinMaskLength, r.MaxMaskLength
		if min == 0 {
			min = p.Bits()
		}
		if max == 0 {
			max = p.Bits()
		}
		if min > max {
			return nil, fmt.Errorf("core: filter %q rule %d: min mask %d > max mask %d", stmt, i, min, max)
		}
		if min < p.Bits() {
			return nil, fmt.Errorf("core: filter %q rule %d: min mask %d shorter than prefix /%d", stmt, i, min, p.Bits())
		}
		cf.rules = append(cf.rules, compiledRule{prefix: p.Masked(), min: min, max: max})
	}
	return cf, nil
}

func compileFilter(st *RouteFilterStatement) (*evalFilterStatement, error) {
	es := &evalFilterStatement{}
	var err error
	if st.PeerSignature != "" {
		if es.peer, err = regexp.Compile(st.PeerSignature); err != nil {
			return nil, fmt.Errorf("core: filter %q peer signature: %w", st.Name, err)
		}
	}
	if es.ingress, err = compilePrefixFilter(st.Ingress, st.Name); err != nil {
		return nil, err
	}
	if es.egress, err = compilePrefixFilter(st.Egress, st.Name); err != nil {
		return nil, err
	}
	return es, nil
}

func (cf *compiledFilter) allows(p netip.Prefix) bool {
	for _, r := range cf.rules {
		if r.prefix.Contains(p.Addr()) && p.Bits() >= r.min && p.Bits() <= r.max {
			return true
		}
	}
	return false
}

// Direction distinguishes ingress from egress filtering.
type Direction int

// Filtering directions.
const (
	Ingress Direction = iota
	Egress
)

// String returns "ingress" or "egress".
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// AllowRoute applies Route Filter RPAs: it reports whether the route may be
// exchanged with the peer in the given direction. Statements whose peer
// signature does not match the peer are skipped; a statement with no filter
// configured for the direction allows the route. With no applicable
// statement at all, the route is allowed (RPA augments, never implicitly
// blocks).
func (e *Evaluator) AllowRoute(r *RouteAttrs, peer string, dir Direction) bool {
	for _, es := range e.prog.filters {
		if es.peer != nil && !es.peer.MatchString(peer) {
			continue
		}
		var cf *compiledFilter
		if dir == Ingress {
			cf = es.ingress
		} else {
			cf = es.egress
		}
		if cf == nil {
			continue
		}
		if !cf.allows(r.Prefix) {
			return false
		}
	}
	return true
}

package fib

import "net/netip"

// SetKeyedOnly makes every Install render the canonical key, as it did
// before the table compared hop sets element-wise: the reference arm of the
// no-op rewrite differential.
func (t *Table) SetKeyedOnly(on bool) { t.keyedOnly = on }

// SameSet reports whether Install would take the element-wise fast path for
// hops over the prefix's live entry.
func (t *Table) SameSet(p netip.Prefix, hops []NextHop) bool {
	g := t.entries[p]
	return g != nil && g.sameSet(hops)
}

// Package core implements the Route Planning Abstraction (RPA), the paper's
// primary contribution (Section 4). RPAs are plug-and-play constructs that
// influence — rather than replace — a BGP speaker's RIB computation:
//
//   - PathSelectionRPA overrides native path selection with a priority list
//     of operator-defined path sets (Figure 7a),
//   - RouteAttributeRPA prescribes WCMP weights a priori (Figure 7b),
//   - RouteFilterRPA gates which prefixes may be exchanged with which peers
//     (Figure 7c).
//
// The package is protocol-agnostic: it sees routes as RouteAttrs value
// snapshots and never talks to peers itself. The BGP daemon in internal/bgp
// invokes the evaluator at the pipeline stages of Figure 6.
package core

import (
	"net/netip"
	"strconv"
	"strings"
)

// Origin is the BGP ORIGIN attribute.
type Origin uint8

// Origin values in preference order (lower is preferred).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the RFC 4271 name of the origin.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	default:
		return "incomplete"
	}
}

// RouteAttrs is the attribute snapshot of one BGP path that RPAs match
// against. It carries the standard transitive attributes plus the
// emulation-level identifiers (peer and next-hop device names).
type RouteAttrs struct {
	Prefix      netip.Prefix
	ASPath      []uint32
	Communities []string // symbolic, e.g. "BACKBONE_DEFAULT_ROUTE"
	LocalPref   uint32
	MED         uint32
	Origin      Origin

	// NextHop and Peer are device names in the emulated fabric; in a real
	// deployment these would be addresses and peer descriptors.
	NextHop string
	Peer    string

	// LinkBandwidthGbps mirrors the link-bandwidth extended community used
	// for distributed WCMP (Section 2); zero means unset.
	LinkBandwidthGbps float64
}

// ASPathString renders the AS path as space-separated ASNs, the string form
// signature regexes match against (e.g. "as_path_regex=^12345").
func (a *RouteAttrs) ASPathString() string {
	if len(a.ASPath) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(len(a.ASPath) * 11)
	for i, asn := range a.ASPath {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(asn), 10))
	}
	return b.String()
}

// HasCommunity reports whether the route carries the community.
func (a *RouteAttrs) HasCommunity(c string) bool {
	for _, got := range a.Communities {
		if got == c {
			return true
		}
	}
	return false
}

// OriginASN returns the last ASN on the path — the route's originator — or
// zero for an empty (locally originated) path.
func (a *RouteAttrs) OriginASN() uint32 {
	if len(a.ASPath) == 0 {
		return 0
	}
	return a.ASPath[len(a.ASPath)-1]
}

// FNV-1a, 64 bit (hash/fnv's New64a, without the hash.Hash object).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds s into the FNV-1a state h.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvField folds s and the zero byte that ends a field into h.
func fnvField[T string | []byte](h uint64, s T) uint64 {
	return fnvAdd(h, s) * fnvPrime64 // h ^ 0 is h
}

// Fingerprint returns a stable 64-bit hash of the attributes that signature
// matching reads. Two routes with equal fingerprints produce identical
// match results, which is what makes the statement cache (Table 2) sound.
//
// The hash is FNV-1a over Prefix.String(), ASPathString(), each community,
// NextHop and Peer, each followed by a zero byte, then LocalPref, MED,
// Origin and the bandwidth in Mbps as big-endian uint32s. The values are
// persisted (cache sections of snapshots), so the byte stream is fixed; a
// cache hit pays for this on every lookup, so it renders no strings.
func (a *RouteAttrs) Fingerprint() uint64 {
	var scratch [64]byte
	h := uint64(fnvOffset64)
	if a.Prefix.IsValid() {
		h = fnvField(h, a.Prefix.AppendTo(scratch[:0]))
	} else {
		h = fnvField(h, "invalid Prefix") // String's rendering; AppendTo's differs for the zero Prefix
	}
	for i, asn := range a.ASPath {
		if i > 0 {
			h = fnvAdd(h, " ")
		}
		h = fnvAdd(h, strconv.AppendUint(scratch[:0], uint64(asn), 10))
	}
	h = fnvField(h, "")
	for _, c := range a.Communities {
		h = fnvField(h, c)
	}
	h = fnvField(h, a.NextHop)
	h = fnvField(h, a.Peer)
	for _, v := range [4]uint32{a.LocalPref, a.MED, uint32(a.Origin), uint32(a.LinkBandwidthGbps * 1000)} {
		for shift := 24; shift >= 0; shift -= 8 {
			h = (h ^ uint64(byte(v>>shift))) * fnvPrime64
		}
	}
	return h
}

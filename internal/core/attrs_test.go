package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func mkRoute(prefix string, asPath []uint32, comms ...string) RouteAttrs {
	return RouteAttrs{
		Prefix:      netip.MustParsePrefix(prefix),
		ASPath:      asPath,
		Communities: comms,
		LocalPref:   100,
	}
}

func TestASPathString(t *testing.T) {
	tests := []struct {
		path []uint32
		want string
	}{
		{nil, ""},
		{[]uint32{65001}, "65001"},
		{[]uint32{65001, 65002, 4200000000}, "65001 65002 4200000000"},
	}
	for _, tt := range tests {
		r := RouteAttrs{ASPath: tt.path}
		if got := r.ASPathString(); got != tt.want {
			t.Errorf("ASPathString(%v) = %q, want %q", tt.path, got, tt.want)
		}
	}
}

func TestHasCommunityAndOriginASN(t *testing.T) {
	r := mkRoute("10.0.0.0/8", []uint32{1, 2, 3}, "A", "B")
	if !r.HasCommunity("A") || !r.HasCommunity("B") || r.HasCommunity("C") {
		t.Error("HasCommunity wrong")
	}
	if got := r.OriginASN(); got != 3 {
		t.Errorf("OriginASN = %d, want 3", got)
	}
	empty := mkRoute("10.0.0.0/8", nil)
	if got := empty.OriginASN(); got != 0 {
		t.Errorf("OriginASN of empty path = %d, want 0", got)
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "igp" || OriginEGP.String() != "egp" || OriginIncomplete.String() != "incomplete" {
		t.Error("Origin.String wrong")
	}
}

func TestFingerprintStability(t *testing.T) {
	a := mkRoute("10.0.0.0/8", []uint32{1, 2}, "X")
	b := mkRoute("10.0.0.0/8", []uint32{1, 2}, "X")
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical routes have different fingerprints")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := mkRoute("10.0.0.0/8", []uint32{1, 2}, "X")
	variants := []RouteAttrs{
		mkRoute("10.0.0.0/9", []uint32{1, 2}, "X"),
		mkRoute("10.0.0.0/8", []uint32{1, 3}, "X"),
		mkRoute("10.0.0.0/8", []uint32{1, 2}, "Y"),
		mkRoute("10.0.0.0/8", []uint32{1, 2}),
	}
	variants[3].NextHop = "nh1"
	for i, v := range variants {
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("variant %d collides with base", i)
		}
	}
	// Field-boundary confusion: ASPath [12] vs [1,2] must differ.
	p1 := mkRoute("10.0.0.0/8", []uint32{12})
	p2 := mkRoute("10.0.0.0/8", []uint32{1, 2})
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Error("AS path [12] and [1 2] collide")
	}
}

func TestFingerprintQuick(t *testing.T) {
	// Property: fingerprint is a pure function of attributes.
	f := func(lp, med uint32, asn1, asn2 uint32) bool {
		r1 := RouteAttrs{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
			ASPath: []uint32{asn1, asn2}, LocalPref: lp, MED: med}
		r2 := RouteAttrs{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
			ASPath: []uint32{asn1, asn2}, LocalPref: lp, MED: med}
		return r1.Fingerprint() == r2.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fingerprintRendered is Fingerprint as it was first written — strings
// rendered and fed to hash/fnv. The values are persisted, so it stays here
// as the reference the allocation-free implementation must agree with.
func fingerprintRendered(a *RouteAttrs) uint64 {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(a.Prefix.String())
	write(a.ASPathString())
	for _, c := range a.Communities {
		write(c)
	}
	write(a.NextHop)
	write(a.Peer)
	for _, v := range []uint32{a.LocalPref, a.MED, uint32(a.Origin), uint32(a.LinkBandwidthGbps * 1000)} {
		h.Write(binary.BigEndian.AppendUint32(nil, v))
	}
	return h.Sum64()
}

func TestFingerprintMatchesRenderedReference(t *testing.T) {
	prefixes := []netip.Prefix{
		{}, // zero: String and AppendTo render it differently
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("255.255.255.255/32"),
		netip.MustParsePrefix("::/0"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
		netip.MustParsePrefix("::ffff:10.0.0.0/104"),
	}
	paths := [][]uint32{nil, {}, {0}, {math.MaxUint32}, {0, math.MaxUint32, 65001}, {12}, {1, 2}}
	comms := [][]string{nil, {}, {""}, {"A"}, {"BACKBONE_DEFAULT_ROUTE", "", "x y"}}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, p := range prefixes {
		for _, path := range paths {
			for _, cs := range comms {
				a := RouteAttrs{
					Prefix: p, ASPath: path, Communities: cs,
					LocalPref: rng.Uint32(), MED: rng.Uint32(), Origin: Origin(rng.Intn(3)),
					NextHop: fmt.Sprint("nh", rng.Intn(3)), Peer: strings.Repeat("p", rng.Intn(3)),
					LinkBandwidthGbps: float64(rng.Intn(4)) * 12.5,
				}
				if got, want := a.Fingerprint(), fingerprintRendered(&a); got != want {
					t.Errorf("Fingerprint(%+v) = %#x, the rendered reference gives %#x", a, got, want)
				}
				checked++
			}
		}
	}
	f := func(hi, lo uint64, bits uint8, path []uint32, cs []string, nh, peer string, lp, med uint32, bw float64) bool {
		var raw [16]byte
		binary.BigEndian.PutUint64(raw[:8], hi)
		binary.BigEndian.PutUint64(raw[8:], lo)
		addr := netip.AddrFrom16(raw)
		if bits&1 == 0 {
			addr = netip.AddrFrom4([4]byte(raw[:4]))
		}
		a := RouteAttrs{
			Prefix: netip.PrefixFrom(addr, int(bits)%(addr.BitLen()+1)), ASPath: path, Communities: cs,
			NextHop: nh, Peer: peer, LocalPref: lp, MED: med, Origin: Origin(bits % 3), LinkBandwidthGbps: bw,
		}
		return a.Fingerprint() == fingerprintRendered(&a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Fatal("no attrs checked")
	}
}

func TestFingerprintDoesNotAllocate(t *testing.T) {
	a := mkRoute("2001:db8:aaaa:bbbb:cccc:dddd:eeee:0/112", []uint32{65001, 4200000000, 7}, "BACKBONE_DEFAULT_ROUTE", "X")
	a.NextHop, a.Peer = "ssw.pl0.0", "fsw.pod0.1"
	if n := testing.AllocsPerRun(100, func() { a.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocates %v times a call", n)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// evaluator compiles a config or fails the test.
func evaluator(t *testing.T, cfg *Config) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return e
}

func TestMinNextHopRequired(t *testing.T) {
	tests := []struct {
		m        MinNextHop
		baseline int
		want     int
	}{
		{MinNextHop{}, 10, 0},
		{MinNextHop{Count: 3}, 10, 3},
		{MinNextHop{Percent: 75}, 8, 6},
		{MinNextHop{Percent: 75}, 10, 8},           // ceil(7.5)
		{MinNextHop{Count: 9, Percent: 75}, 10, 9}, // max of both
		{MinNextHop{Count: 2, Percent: 75}, 10, 8}, // percent dominates
		{MinNextHop{Percent: 100}, 4, 4},
	}
	for _, tt := range tests {
		if got := tt.m.Required(tt.baseline); got != tt.want {
			t.Errorf("%+v.Required(%d) = %d, want %d", tt.m, tt.baseline, got, tt.want)
		}
	}
	if !(MinNextHop{}).IsZero() || (MinNextHop{Count: 1}).IsZero() {
		t.Error("IsZero wrong")
	}
}

// The Section 4.4.1 scenario: equalize paths of varying AS-path lengths
// from the backbone.
func TestSelectPathsEqualizesLengths(t *testing.T) {
	const backboneASN = 64512
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "equalize-backbone",
		Destination: Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
		PathSets: []PathSet{{
			Name:      "any-backbone-origin",
			Signature: PathSignature{OriginASN: backboneASN},
		}},
	}}})

	// Old (long) path and new (short) path, both originated by the backbone.
	long := mkRoute("0.0.0.0/0", []uint32{100, 200, backboneASN}, "BACKBONE_DEFAULT_ROUTE")
	long.NextHop = "fav1.0"
	short := mkRoute("0.0.0.0/0", []uint32{300, backboneASN}, "BACKBONE_DEFAULT_ROUTE")
	short.NextHop = "fav2.0"
	other := mkRoute("0.0.0.0/0", []uint32{999}, "BACKBONE_DEFAULT_ROUTE") // different origin
	other.NextHop = "rogue"

	d := e.SelectPaths([]RouteAttrs{long, short, other}, 3)
	if d.UsedNative {
		t.Fatal("expected RPA selection, got native fallback")
	}
	if len(d.Selected) != 2 {
		t.Fatalf("Selected = %v, want the two backbone-origin paths", d.Selected)
	}
	if d.MatchedSet != "any-backbone-origin" {
		t.Errorf("MatchedSet = %q", d.MatchedSet)
	}
}

func TestSelectPathsPriorityOrder(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "prefer-primary",
		Destination: Destination{Community: "SVC"},
		PathSets: []PathSet{
			{Name: "primary", Signature: PathSignature{NextHopRegex: "^primary"}},
			{Name: "backup", Signature: PathSignature{NextHopRegex: "^backup"}},
		},
	}}})
	primary := mkRoute("10.1.0.0/16", []uint32{1}, "SVC")
	primary.NextHop = "primary.0"
	backup := mkRoute("10.1.0.0/16", []uint32{2}, "SVC")
	backup.NextHop = "backup.0"

	// Both available: primary set wins.
	d := e.SelectPaths([]RouteAttrs{primary, backup}, 2)
	if d.MatchedSet != "primary" || len(d.Selected) != 1 || d.Selected[0] != 0 {
		t.Fatalf("want primary set, got %+v", d)
	}
	// Primary gone: backup set matches.
	d = e.SelectPaths([]RouteAttrs{backup}, 2)
	if d.MatchedSet != "backup" {
		t.Fatalf("want backup set, got %+v", d)
	}
}

func TestSelectPathsMinNextHopGate(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "gated",
		Destination: Destination{Community: "D"},
		PathSets: []PathSet{
			{Name: "wide", Signature: PathSignature{NextHopRegex: "^fadu"}, MinNextHop: MinNextHop{Count: 3}},
			{Name: "fallback-set", Signature: PathSignature{NextHopRegex: "^eb"}},
		},
	}}})
	r := func(nh string) RouteAttrs {
		x := mkRoute("10.0.0.0/8", []uint32{1}, "D")
		x.NextHop = nh
		return x
	}
	// Only 2 distinct fadu next-hops: "wide" fails its MinNextHop of 3,
	// so priority falls to the next set.
	d := e.SelectPaths([]RouteAttrs{r("fadu.0"), r("fadu.1"), r("eb.0")}, 4)
	if d.MatchedSet != "fallback-set" {
		t.Fatalf("want fallback-set, got %+v", d)
	}
	// 3 distinct fadu next-hops: "wide" matches.
	d = e.SelectPaths([]RouteAttrs{r("fadu.0"), r("fadu.1"), r("fadu.2"), r("eb.0")}, 4)
	if d.MatchedSet != "wide" || len(d.Selected) != 3 {
		t.Fatalf("want wide with 3 routes, got %+v", d)
	}
}

func TestSelectPathsDistinctNextHopsNotRouteCount(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "dedup",
		Destination: Destination{Community: "D"},
		PathSets: []PathSet{
			{Name: "s", Signature: PathSignature{}, MinNextHop: MinNextHop{Count: 2}},
		},
	}}})
	a := mkRoute("10.0.0.0/8", []uint32{1}, "D")
	a.NextHop = "x"
	b := mkRoute("10.0.0.0/8", []uint32{2}, "D")
	b.NextHop = "x" // same next hop, different path
	d := e.SelectPaths([]RouteAttrs{a, b}, 2)
	if !d.UsedNative {
		t.Fatalf("two routes over one next hop must not satisfy MinNextHop 2: %+v", d)
	}
}

func TestSelectPathsNativeFallback(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "never-matches",
		Destination: Destination{Community: "D"},
		PathSets: []PathSet{
			{Signature: PathSignature{ASPathRegex: "^999999 "}},
		},
	}}})
	r := mkRoute("10.0.0.0/8", []uint32{1, 2}, "D")
	d := e.SelectPaths([]RouteAttrs{r}, 1)
	if !d.UsedNative {
		t.Fatalf("want native fallback, got %+v", d)
	}
	// Statement not matching destination at all: also native.
	other := mkRoute("10.0.0.0/8", []uint32{1, 2}, "OTHER")
	d = e.SelectPaths([]RouteAttrs{other}, 1)
	if !d.UsedNative {
		t.Fatalf("want native for unmatched destination, got %+v", d)
	}
	// No candidates.
	if d := e.SelectPaths(nil, 1); !d.UsedNative {
		t.Fatalf("want native for empty candidates, got %+v", d)
	}
}

func TestNativeConstraintFor(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:                     "mnh",
		Destination:              Destination{Community: "D"},
		BgpNativeMinNextHop:      MinNextHop{Percent: 75},
		KeepFibWarmIfMnhViolated: true,
	}}})
	r := mkRoute("10.0.0.0/8", []uint32{1}, "D")
	nc := e.NativeConstraintFor(&r)
	if !nc.Present || !nc.KeepFibWarm || nc.MinNextHop.Percent != 75 {
		t.Fatalf("NativeConstraintFor = %+v", nc)
	}
	// Required: 75% of 4 = 3.
	if got := nc.MinNextHop.Required(4); got != 3 {
		t.Errorf("Required(4) = %d, want 3", got)
	}
	miss := mkRoute("10.0.0.0/8", []uint32{1}, "X")
	if nc := e.NativeConstraintFor(&miss); nc.Present {
		t.Fatalf("constraint for unmatched route = %+v", nc)
	}
	if !e.HasPathSelection(&r) || e.HasPathSelection(&miss) {
		t.Error("HasPathSelection wrong")
	}
}

func TestSelectPathsEmptyPathSetListGoesNative(t *testing.T) {
	// Section 4.4.2: PathSetList [] + BgpNativeMinNextHop is the
	// decommission-protection idiom.
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:                "protect",
		Destination:         Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
		BgpNativeMinNextHop: MinNextHop{Percent: 75},
	}}})
	r := mkRoute("0.0.0.0/0", []uint32{9}, "BACKBONE_DEFAULT_ROUTE")
	d := e.SelectPaths([]RouteAttrs{r}, 8)
	if !d.UsedNative {
		t.Fatalf("empty PathSetList must use native selection: %+v", d)
	}
}

func TestSelectionCacheHitsAndStats(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "c",
		Destination: Destination{Community: "D"},
		PathSets:    []PathSet{{Signature: PathSignature{ASPathRegex: "^1 "}}},
	}}})
	r := mkRoute("10.0.0.0/8", []uint32{1, 2}, "D")
	e.SelectPaths([]RouteAttrs{r}, 1)
	hits0, misses0 := e.Cache().Stats()
	if misses0 == 0 {
		t.Fatal("first evaluation should miss the cache")
	}
	e.SelectPaths([]RouteAttrs{r}, 1)
	hits1, _ := e.Cache().Stats()
	if hits1 <= hits0 {
		t.Fatalf("second evaluation should hit the cache: hits %d -> %d", hits0, hits1)
	}
}

func TestSelectPathsFirstStatementGoverns(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{
		{
			Name:        "first",
			Destination: Destination{Community: "D"},
			PathSets:    []PathSet{{Name: "a", Signature: PathSignature{NextHopRegex: "^x"}}},
		},
		{
			Name:        "second",
			Destination: Destination{Community: "D"},
			PathSets:    []PathSet{{Name: "b", Signature: PathSignature{}}},
		},
	}})
	r := mkRoute("10.0.0.0/8", []uint32{1}, "D")
	r.NextHop = "y" // first statement's set won't match
	d := e.SelectPaths([]RouteAttrs{r}, 1)
	// First statement governs: its sets fail, so native fallback — NOT the
	// second statement.
	if !d.UsedNative {
		t.Fatalf("expected first-match statement semantics, got %+v", d)
	}
}

func TestDestinationByPrefix(t *testing.T) {
	e := evaluator(t, &Config{PathSelection: []PathSelectionStatement{{
		Name:        "by-prefix",
		Destination: Destination{Prefixes: []string{"10.2.0.0/16"}},
		PathSets:    []PathSet{{Name: "all", Signature: PathSignature{}}},
	}}})
	hit := mkRoute("10.2.0.0/16", []uint32{1})
	miss := mkRoute("10.3.0.0/16", []uint32{1})
	if d := e.SelectPaths([]RouteAttrs{hit}, 1); d.UsedNative {
		t.Fatal("prefix destination did not match")
	}
	if d := e.SelectPaths([]RouteAttrs{miss}, 1); !d.UsedNative {
		t.Fatal("wrong prefix matched")
	}
}

// TestMayShape holds MayShape to its contract over random programs: when it
// says a prefix cannot be shaped, no Path Selection or Route Attribute
// destination matches any route for that prefix, whatever communities the
// route carries; when it says one can, some route for it is matched. It
// never allocates, with or without statements.
func TestMayShape(t *testing.T) {
	pool := []string{
		"10.1.0.0/16", "10.2.0.0/16", "10.1.0.1/16", "0.0.0.0/0", "::/0",
		"2001:db8::/32", "::ffff:10.1.0.0/112",
		// Strings no prefix renders as: Matches can never match them.
		"010.1.0.0/16", "10.1.0.0/16 ", "2001:DB8::/32", "10.1.0.0", "bogus", "",
	}
	var prefixes []netip.Prefix
	for _, s := range pool {
		if p, err := netip.ParsePrefix(s); err == nil {
			prefixes = append(prefixes, p, p.Masked())
		}
	}
	prefixes = append(prefixes, netip.MustParsePrefix("10.3.0.0/24"), netip.MustParsePrefix("2001:db8::/48"))
	comms := []string{"A", "B"}
	r := rand.New(rand.NewSource(1))
	dest := func() Destination {
		var d Destination
		switch r.Intn(4) {
		case 0: // zero: every route
		case 1:
			d.Community = comms[r.Intn(len(comms))]
		default:
			for n := 1 + r.Intn(3); n > 0; n-- {
				d.Prefixes = append(d.Prefixes, pool[r.Intn(len(pool))])
			}
			if r.Intn(4) == 0 {
				d.Community = comms[r.Intn(len(comms))]
			}
		}
		return d
	}
	for trial := 0; trial < 500; trial++ {
		cfg := &Config{}
		for i := r.Intn(3); i > 0; i-- {
			cfg.PathSelection = append(cfg.PathSelection, PathSelectionStatement{Name: fmt.Sprint("ps", i), Destination: dest()})
		}
		for i := r.Intn(3); i > 0; i-- {
			cfg.RouteAttribute = append(cfg.RouteAttribute, RouteAttributeStatement{Name: fmt.Sprint("ra", i), Destination: dest()})
		}
		if r.Intn(2) == 0 { // filters shape nothing
			cfg.RouteFilter = []RouteFilterStatement{{Name: "rf", Ingress: &PrefixFilter{}}}
		}
		e := evaluator(t, cfg)
		for _, p := range prefixes {
			matched := false
			for _, cs := range [][]string{nil, {"A"}, {"B"}, {"B", "A"}} {
				route := RouteAttrs{Prefix: p, Communities: cs}
				for i := range cfg.PathSelection {
					matched = matched || cfg.PathSelection[i].Destination.Matches(&route)
				}
				for i := range cfg.RouteAttribute {
					matched = matched || cfg.RouteAttribute[i].Destination.Matches(&route)
				}
			}
			if got := e.MayShape(p); got != matched {
				t.Fatalf("trial %d: MayShape(%v) = %v, want %v (whether a destination matches some route for it)\nconfig: %+v", trial, p, got, matched, cfg)
			}
		}
	}

	p := netip.MustParsePrefix("10.1.0.0/16")
	for name, cfg := range map[string]*Config{
		"no statements": {},
		"listed":        {RouteAttribute: []RouteAttributeStatement{{Name: "ra", Destination: Destination{Prefixes: []string{"10.2.0.0/16", "10.1.0.0/16"}}}}},
		"unlisted":      {PathSelection: []PathSelectionStatement{{Name: "ps", Destination: Destination{Prefixes: []string{"10.2.0.0/16"}}}}},
		"community":     {PathSelection: []PathSelectionStatement{{Name: "ps", Destination: Destination{Community: "A"}}}},
	} {
		e := evaluator(t, cfg)
		if n := testing.AllocsPerRun(100, func() { e.MayShape(p) }); n != 0 {
			t.Errorf("%s: MayShape allocates %.0f times per call", name, n)
		}
	}
}

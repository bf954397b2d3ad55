package core

import (
	"testing"
	"testing/quick"
)

func sampleConfig() *Config {
	return &Config{
		Version: 3,
		PathSelection: []PathSelectionStatement{{
			Name:        "ps1",
			Destination: Destination{Community: "BACKBONE_DEFAULT_ROUTE"},
			PathSets: []PathSet{{
				Name:      "backbone",
				Signature: PathSignature{ASPathRegex: "64512$"},
			}},
			BgpNativeMinNextHop: MinNextHop{Percent: 75},
		}},
		RouteAttribute: []RouteAttributeStatement{{
			Name:           "ra1",
			Destination:    Destination{Community: "TE"},
			NextHopWeights: []NextHopWeight{{Signature: PathSignature{NextHopRegex: "^eb"}, Weight: 2}},
		}},
		RouteFilter: []RouteFilterStatement{{
			Name:    "rf1",
			Ingress: &PrefixFilter{Rules: []PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 8, MaxMaskLength: 24}}},
		}},
	}
}

func TestConfigRoundTrip(t *testing.T) {
	c := sampleConfig()
	data, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Version != c.Version {
		t.Errorf("Version = %d, want %d", got.Version, c.Version)
	}
	if len(got.PathSelection) != 1 || got.PathSelection[0].Name != "ps1" {
		t.Errorf("PathSelection lost in round trip: %+v", got.PathSelection)
	}
	if got.PathSelection[0].BgpNativeMinNextHop.Percent != 75 {
		t.Error("MinNextHop lost")
	}
	if _, err := Unmarshal([]byte("{bogus")); err == nil {
		t.Error("Unmarshal of garbage succeeded")
	}
}

func TestConfigLOC(t *testing.T) {
	c := sampleConfig()
	loc := c.LOC()
	if loc < 10 {
		t.Errorf("LOC = %d, implausibly small", loc)
	}
	empty := &Config{}
	if empty.LOC() >= loc {
		t.Error("empty config should have fewer lines")
	}
	if !empty.IsEmpty() || c.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

// invalidConfigs is every way a config can be refused, with the error text —
// written by the pre-Compile Validate, so a moved string shows up here.
var invalidConfigs = []struct {
	cfg  *Config
	want string
}{
	{&Config{PathSelection: []PathSelectionStatement{{Name: ""}}},
		`core: path-selection statement 0 has no name`},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a"}, {Name: "a"}}},
		`core: duplicate path-selection statement "a"`},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", PathSets: []PathSet{{Signature: PathSignature{ASPathRegex: "("}}}}}},
		"core: statement \"a\" set 0: core: bad as_path_regex \"(\": error parsing regexp: missing closing ): `(`"},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", PathSets: []PathSet{{Signature: PathSignature{PeerRegex: "["}}}}}},
		"core: statement \"a\" set 0: core: bad peer_regex \"[\": error parsing regexp: missing closing ]: `[`"},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", BgpNativeMinNextHop: MinNextHop{Percent: 150}}}},
		`core: statement "a": invalid BgpNativeMinNextHop {Count:0 Percent:150}`},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", PathSets: []PathSet{{MinNextHop: MinNextHop{Count: -1}}}}}},
		`core: statement "a" set 0: invalid MinNextHop {Count:-1 Percent:0}`},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", PathSets: []PathSet{{MinNextHop: MinNextHop{Percent: 101}}}}}},
		`core: statement "a" set 0: invalid MinNextHop {Count:0 Percent:101}`},
	{&Config{PathSelection: []PathSelectionStatement{{Name: "a", ExpectedNextHops: -1}}},
		`core: statement "a": negative ExpectedNextHops`},
	{&Config{RouteAttribute: []RouteAttributeStatement{{Name: ""}}},
		`core: route-attribute statement 0 has no name`},
	{&Config{RouteAttribute: []RouteAttributeStatement{{Name: "r", NextHopWeights: []NextHopWeight{{Weight: -1}}}}},
		`core: route-attribute "r" weight 0 is negative`},
	{&Config{RouteAttribute: []RouteAttributeStatement{{Name: "r", NextHopWeights: []NextHopWeight{{Signature: PathSignature{NextHopRegex: "*"}}}}}},
		"core: route-attribute \"r\" weight 0: core: bad next_hop_regex \"*\": error parsing regexp: missing argument to repetition operator: `*`"},
	{&Config{RouteAttribute: []RouteAttributeStatement{{Name: "r"}, {Name: "r"}}},
		`core: duplicate route-attribute statement "r"`},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: ""}}},
		`core: route-filter statement 0 has no name`},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: "f"}, {Name: "f"}}},
		`core: duplicate route-filter statement "f"`},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: "b1", PeerSignature: "("}}},
		"core: filter \"b1\" peer signature: error parsing regexp: missing closing ): `(`"},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: "b2", Ingress: &PrefixFilter{Rules: []PrefixRule{{Prefix: "not-a-prefix"}}}}}},
		`core: filter "b2" rule 0: netip.ParsePrefix("not-a-prefix"): no '/'`},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: "b3", Egress: &PrefixFilter{Rules: []PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 20, MaxMaskLength: 16}}}}}},
		`core: filter "b3" rule 0: min mask 20 > max mask 16`},
	{&Config{RouteFilter: []RouteFilterStatement{{Name: "b4", Ingress: &PrefixFilter{Rules: []PrefixRule{{Prefix: "10.0.0.0/8", MinMaskLength: 4, MaxMaskLength: 16}}}}}},
		`core: filter "b4" rule 0: min mask 4 shorter than prefix /8`},
	// An earlier kind's error wins over a later kind's.
	{&Config{
		PathSelection: []PathSelectionStatement{{Name: "a", ExpectedNextHops: -1}},
		RouteFilter:   []RouteFilterStatement{{Name: ""}},
	}, `core: statement "a": negative ExpectedNextHops`},
}

func TestConfigValidateRejects(t *testing.T) {
	for i, tc := range invalidConfigs {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	if err := sampleConfig().Validate(); err != nil {
		t.Errorf("sample config invalid: %v", err)
	}
}

func TestConfigMerge(t *testing.T) {
	a := sampleConfig()
	b := &Config{
		Version: 9,
		PathSelection: []PathSelectionStatement{{
			Name:        "ps2",
			Destination: Destination{Community: "OTHER"},
		}},
	}
	m := a.Merge(b)
	if len(m.PathSelection) != 2 {
		t.Fatalf("merged PathSelection = %d statements, want 2", len(m.PathSelection))
	}
	if m.PathSelection[0].Name != "ps1" || m.PathSelection[1].Name != "ps2" {
		t.Error("merge order wrong: base statements must come first")
	}
	if m.Version != 9 {
		t.Errorf("merged Version = %d, want 9", m.Version)
	}
	// Merge must not alias either input.
	m.PathSelection[0].Name = "x"
	if a.PathSelection[0].Name != "ps1" {
		t.Error("Merge aliases input a")
	}
}

func TestSignatureKeyCanonical(t *testing.T) {
	s1 := PathSignature{Communities: []string{"b", "a"}}
	s2 := PathSignature{Communities: []string{"a", "b"}}
	if s1.Key() != s2.Key() {
		t.Error("Key not canonical over community order")
	}
	if !(&PathSignature{}).IsZero() {
		t.Error("zero signature not IsZero")
	}
	s := PathSignature{ASPathRegex: "^1"}
	if s.IsZero() {
		t.Error("nonzero signature IsZero")
	}
}

func TestConfigRoundTripQuick(t *testing.T) {
	// Property: Marshal/Unmarshal preserves version and statement counts
	// for arbitrary small configs.
	f := func(version int64, nPS, nRA uint8) bool {
		c := &Config{Version: version}
		for i := 0; i < int(nPS%4); i++ {
			c.PathSelection = append(c.PathSelection, PathSelectionStatement{
				Name: "ps" + string(rune('a'+i)),
			})
		}
		for i := 0; i < int(nRA%4); i++ {
			c.RouteAttribute = append(c.RouteAttribute, RouteAttributeStatement{
				Name: "ra" + string(rune('a'+i)),
			})
		}
		data, err := c.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return got.Version == c.Version &&
			len(got.PathSelection) == len(c.PathSelection) &&
			len(got.RouteAttribute) == len(c.RouteAttribute)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCacheBehavior(t *testing.T) {
	c := NewCache(4)
	k := CacheKey{Statement: "s", Set: 0, Route: 42}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, true)
	if v, ok := c.Get(k); !ok || !v {
		t.Fatal("cached value lost")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
	// Overflow clears.
	for i := 0; i < 10; i++ {
		c.Put(CacheKey{Statement: "s", Set: i, Route: uint64(i)}, false)
	}
	if c.Len() > 4 {
		t.Errorf("cache exceeded bound: %d", c.Len())
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear left entries")
	}
	// Disabled cache never stores.
	c.SetEnabled(false)
	c.Put(k, true)
	if _, ok := c.Get(k); ok {
		t.Error("disabled cache returned a hit")
	}
	c.SetEnabled(true)
	if c.Len() != 0 {
		t.Error("re-enable kept stale entries")
	}
	if NewCache(0).max != defaultCacheSize {
		t.Error("default size not applied")
	}
}

package core

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sync"
)

// Program is a compiled Config: the config, its compiled statements and its
// compact JSON rendering. It is immutable, so one Program serves every
// speaker, fork and goroutine it reaches; what differs per switch, the match
// cache, lives in the Evaluator.
type Program struct {
	cfg      *Config
	pathSel  []*evalStatement
	routeAtt []*evalAttrStatement
	filters  []*evalFilterStatement

	// shapeAll and shapes are where the PathSelection and RouteAttribute
	// statements reach (see Evaluator.MayShape): every prefix, or the
	// prefixes their destinations list.
	shapeAll bool
	shapes   []netip.Prefix

	render sync.Once
	json   []byte
}

// Compile checks a config and compiles it in one pass, the only one over a
// config's statements: names present and unique within each kind, thresholds
// in range, weights non-negative, regexes compile, prefix rules parse. The
// Program keeps cfg by reference; nobody may edit it afterwards (see Config).
func Compile(cfg *Config) (*Program, error) {
	p := &Program{cfg: cfg}
	seen := make(map[string]bool)
	named := func(kind string, i int, name string) error {
		if name == "" {
			return fmt.Errorf("core: %s statement %d has no name", kind, i)
		}
		if seen[kind+"/"+name] {
			return fmt.Errorf("core: duplicate %s statement %q", kind, name)
		}
		seen[kind+"/"+name] = true
		return nil
	}
	for i := range cfg.PathSelection {
		st := &cfg.PathSelection[i]
		if err := named("path-selection", i, st.Name); err != nil {
			return nil, err
		}
		es := &evalStatement{src: st}
		for j := range st.PathSets {
			cs, err := compileSignature(st.PathSets[j].Signature)
			if err != nil {
				return nil, fmt.Errorf("core: statement %q set %d: %w", st.Name, j, err)
			}
			if m := st.PathSets[j].MinNextHop; !m.valid() {
				return nil, fmt.Errorf("core: statement %q set %d: invalid MinNextHop %+v", st.Name, j, m)
			}
			es.sets = append(es.sets, cs)
		}
		if m := st.BgpNativeMinNextHop; !m.valid() {
			return nil, fmt.Errorf("core: statement %q: invalid BgpNativeMinNextHop %+v", st.Name, m)
		}
		if st.ExpectedNextHops < 0 {
			return nil, fmt.Errorf("core: statement %q: negative ExpectedNextHops", st.Name)
		}
		p.pathSel = append(p.pathSel, es)
		p.addShape(&st.Destination)
	}
	for i := range cfg.RouteAttribute {
		st := &cfg.RouteAttribute[i]
		if err := named("route-attribute", i, st.Name); err != nil {
			return nil, err
		}
		es := &evalAttrStatement{src: st}
		for j := range st.NextHopWeights {
			if st.NextHopWeights[j].Weight < 0 {
				return nil, fmt.Errorf("core: route-attribute %q weight %d is negative", st.Name, j)
			}
			cs, err := compileSignature(st.NextHopWeights[j].Signature)
			if err != nil {
				return nil, fmt.Errorf("core: route-attribute %q weight %d: %w", st.Name, j, err)
			}
			es.sigs = append(es.sigs, cs)
		}
		p.routeAtt = append(p.routeAtt, es)
		p.addShape(&st.Destination)
	}
	for i := range cfg.RouteFilter {
		st := &cfg.RouteFilter[i]
		if err := named("route-filter", i, st.Name); err != nil {
			return nil, err
		}
		es, err := compileFilter(st)
		if err != nil {
			return nil, err
		}
		p.filters = append(p.filters, es)
	}
	return p, nil
}

// addShape records the prefixes a statement's destination can match. A zero
// or community destination can match a route for any prefix. A listed prefix
// is compared as text by Matches, so only a string that is some prefix's own
// rendering can ever match, and it matches that prefix alone.
func (p *Program) addShape(d *Destination) {
	if d.Community != "" || len(d.Prefixes) == 0 {
		p.shapeAll = true
		return
	}
	for _, s := range d.Prefixes {
		if q, err := netip.ParsePrefix(s); err == nil && q.String() == s {
			p.shapes = append(p.shapes, q)
		}
	}
}

// ParseProgram compiles a config from its JSON rendering, for the snapshot
// codec. JSON returns a copy of exactly these bytes, so decode then encode is
// the identity.
func ParseProgram(data []byte) (*Program, error) {
	cfg, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	p, err := Compile(cfg)
	if err == nil {
		p.render.Do(func() { p.json = slices.Clone(data) })
	}
	return p, err
}

// Config returns the compiled config, which must not be edited.
func (p *Program) Config() *Config { return p.cfg }

// JSON returns the config's compact encoding/json rendering — the bytes a
// checkpoint stores and the planner compares — computed on first use and
// read-only from then on.
func (p *Program) JSON() []byte {
	p.render.Do(func() {
		var err error
		if p.json, err = json.Marshal(p.cfg); err != nil {
			// Compile refused the one value JSON cannot carry, a NaN percentage.
			panic("core: compiled config not marshalable: " + err.Error())
		}
	})
	return p.json
}

// NewEvaluator returns an evaluator of the program with its own match cache.
func (p *Program) NewEvaluator() *Evaluator {
	return &Evaluator{prog: p, cache: NewCache(defaultCacheSize)}
}

// String is JSON as text: states that carry programs print by content.
func (p *Program) String() string { return string(p.JSON()) }

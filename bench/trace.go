package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer's public
// functions. Names are "layer.what"; Parent is the span that was open
// when this one started (-1 for an op's root); Op numbers the op the span
// belongs to, so all spans of one request share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// The harness is single-threaded where it records spans (the daemon's own
// goroutines record none), so there is no locking. A nil tracer records
// nothing and costs one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// classes[i] is the request class of op i+1; op 0 is everything
	// outside an op.
	classes []string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: len(t.classes), Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// nextOp starts a new op identifier for an op of the given class.
func (t *tracer) nextOp(class string) {
	if t != nil {
		t.classes = append(t.classes, class)
	}
}

// classOf returns the request class of the op a span belongs to.
func (t *tracer) classOf(s span) string {
	if s.Op == 0 {
		return ""
	}
	return t.classes[s.Op-1]
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (two callbacks timed against one parent), so the covered part is
// the length of the union of the child intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer over the spans.
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += ns
	}
	return out
}

// spanTotal sums the durations of the spans with the given name.
func spanTotal(spans []span, name string) (total int64, count int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			count++
		}
	}
	return total, count
}

// spanFile is what a traced run writes at exit.
type spanFile struct {
	Context map[string]any `json:"context"`
	Spans   []span         `json:"spans"`
}

func writeSpans(path string, ctx map[string]any, spans []span) error {
	data, err := json.Marshal(spanFile{Context: ctx, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

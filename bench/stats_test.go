package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"single", []float64{7}, 10, 7},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 100, 3},
		{"median odd", []float64{5, 1, 3}, 50, 3},
		{"median even interpolates", []float64{1, 2, 3, 4}, 50, 2.5},
		{"p10 of eleven is the second value", []float64{10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10, 1},
		{"p10 of six interpolates", []float64{0, 10, 20, 30, 40, 50}, 10, 5},
		{"p90 of ten interpolates", []float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 90, 8.1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The quiet-round value ignores slow rounds: one or two rounds hit by a
// busy neighbour must not move it, where they do move the mean.
func TestQuietIgnoresSlowRounds(t *testing.T) {
	calm := []float64{1.00, 1.01, 1.02, 1.00, 1.01, 1.03, 1.02, 1.01, 1.00, 1.02, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01}
	noisy := append([]float64(nil), calm...)
	noisy[3], noisy[9], noisy[12] = 1.9, 2.4, 1.6
	if a, b := quiet(calm), quiet(noisy); math.Abs(a-b) > 0.011 {
		t.Errorf("quiet moved from %v to %v under three slow rounds", a, b)
	}
	if quiet(calm) < 1.0 || quiet(calm) > 1.01 {
		t.Errorf("quiet(calm) = %v, want the low end of the rounds", quiet(calm))
	}
}

func TestRoundPercentileIsARealOp(t *testing.T) {
	cases := []struct {
		name string
		lat  []float64
		p    float64
		want float64
	}{
		{"one op", []float64{600}, 95, 600},
		{"p50 of two is the faster", []float64{141, 75}, 50, 75},
		{"p95 of two is the slower", []float64{141, 75}, 95, 141},
		{"p50 of six is the third", []float64{335, 27, 106, 300, 30, 110}, 50, 106},
		{"p95 of six is the slowest", []float64{335, 27, 106, 300, 30, 110}, 95, 335},
		{"p95 of twenty is the nineteenth", seq(1, 20), 95, 19},
		{"p95 of two hundred leaves ten beyond", seq(1, 200), 95, 190},
	}
	for _, c := range cases {
		if got := roundPercentile(c.lat, c.p); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func seq(lo, hi int) []float64 {
	var out []float64
	for i := hi; i >= lo; i-- {
		out = append(out, float64(i))
	}
	return out
}

func repeat(class string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = class
	}
	return out
}

func TestClassAtRank(t *testing.T) {
	order := []string{"memo", "small", "big"}
	mix := func(memo, small, big int) []string {
		return append(append(repeat("big", big), repeat("memo", memo)...), repeat("small", small)...)
	}
	cases := []struct {
		name       string
		classes    []string
		p          float64
		wantClass  string
		wantMargin float64
	}{
		// 20/40/40 of 100: p50 is index 49, "small" spans [20,60).
		{"inside a class", mix(20, 40, 40), 50, "small", 0.10},
		// 50/25/25: index 49 is the last memo op, on the boundary.
		{"on a class boundary", mix(50, 25, 25), 50, "memo", 0},
		// p95 is index 94 in "big" [60,100): 34 ops above the lower edge;
		// the upper edge is the end of the round, not a boundary.
		{"top class has no upper boundary", mix(20, 40, 40), 95, "big", 0.34},
		{"single class has no boundary at all", repeat("memo", 10), 50, "memo", math.Inf(1)},
	}
	for _, c := range cases {
		class, margin := classAtRank(c.classes, order, c.p)
		if class != c.wantClass || math.Abs(margin-c.wantMargin) > 1e-9 && margin != c.wantMargin {
			t.Errorf("%s: got (%q, %v), want (%q, %v)", c.name, class, margin, c.wantClass, c.wantMargin)
		}
	}
	if class, _ := classAtRank([]string{"stray"}, order, 50); class != "" {
		t.Errorf("a class missing from the order resolved to %q", class)
	}
}

func TestSelfTimes(t *testing.T) {
	mk := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Name: "layer.x", Start: start, End: end}
	}
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{mk(0, -1, 0, 100)}, []int64{100}},
		{"two disjoint children", []span{mk(0, -1, 0, 100), mk(1, 0, 10, 30), mk(2, 0, 50, 70)}, []int64{60, 20, 20}},
		// Children [10,50) and [30,80) overlap on [30,50): the parent's
		// covered part is their union, 70, not their sum, 90.
		{"overlapping children", []span{mk(0, -1, 0, 100), mk(1, 0, 10, 50), mk(2, 0, 30, 80)}, []int64{30, 40, 50}},
		{"child contained in a sibling", []span{mk(0, -1, 0, 100), mk(1, 0, 10, 90), mk(2, 0, 20, 30)}, []int64{20, 80, 10}},
		{"child clipped to its parent", []span{mk(0, -1, 0, 100), mk(1, 0, 90, 130)}, []int64{90, 40}},
		{"grandchildren count against the child only", []span{mk(0, -1, 0, 100), mk(1, 0, 10, 60), mk(2, 1, 20, 40)}, []int64{50, 30, 20}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestLayerSelfAndTracer(t *testing.T) {
	tr := newTracer()
	tr.nextOp("a")
	endOp := tr.span("harness.op")
	endReq := tr.span("server.request")
	endReq()
	endFab := tr.span("fabric.converge")
	endFab()
	endOp()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("span tree wrong: %+v", tr.spans)
	}
	if tr.classOf(tr.spans[2]) != "a" {
		t.Errorf("span op class = %q, want a", tr.classOf(tr.spans[2]))
	}
	self := layerSelf(tr.spans)
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total != tr.spans[0].End-tr.spans[0].Start {
		t.Errorf("self times sum to %d, the root span is %d", total, tr.spans[0].End-tr.spans[0].Start)
	}
	var nilTracer *tracer
	nilTracer.nextOp("x")
	nilTracer.span("fabric.converge")() // must not panic
}

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs with linear
// interpolation between closest ranks (the numpy default). It does not
// modify xs. An empty sample has no percentile; callers never pass one.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quiet is the quiet-round estimator: the 10th percentile across rounds
// of a per-round timing. On a shared machine interference only ever adds
// time, so the low tail of identical rounds is the stable part of the
// distribution; the median moves with whatever the neighbours are doing.
func quiet(perRound []float64) float64 { return percentile(perRound, 10) }

// nearestRank returns the index into a sorted sample of n values that
// holds the p-th percentile by the nearest-rank rule (ceil(p/100*n), 1-based).
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// roundPercentile is the per-round op-latency percentile: nearest rank, so
// the reported value is one real op's latency and its class is known.
func roundPercentile(lat []float64, p float64) float64 {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)]
}

// classAtRank says which op class holds the p-th percentile rank when the
// round's ops are laid out cheapest class first (order lists the classes
// by nominal cost). It also returns how far, as a share of the round, the
// rank sits from the nearest edge of that class: a rank near an edge is a
// percentile that can flip between two classes from round to round.
func classAtRank(classes []string, order []string, p float64) (class string, margin float64) {
	n := len(classes)
	count := make(map[string]int, len(order))
	for _, c := range classes {
		count[c]++
	}
	rank := nearestRank(n, p)
	lo := 0
	for _, c := range order {
		hi := lo + count[c]
		if rank < hi {
			below := float64(rank-lo) / float64(n)
			above := float64(hi-1-rank) / float64(n)
			// The outer edges of the whole round are not class
			// boundaries: nothing cheaper (or dearer) can cross them.
			if lo == 0 {
				below = math.Inf(1)
			}
			if hi == n {
				above = math.Inf(1)
			}
			return c, math.Min(below, above)
		}
		lo = hi
	}
	return "", 0
}

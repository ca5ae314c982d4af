package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 1) of
// sorted: the smallest sample with at least p of the samples at or below
// it. No interpolation and no bucketing — the value returned is one that
// was measured. Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median sorts a copy of xs and returns its 50th percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.50)
}

// ms converts durations to sorted millisecond samples.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4), which is
// what the acceptance pipeline computes), so -repeat prints the spread the
// pipeline will see. Needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// maxRelDiff is the largest pairwise relative difference among xs, taken
// against the smaller magnitude of the set: (max − min) / min. It is the
// figure -repeat holds against a metric's bound.
func maxRelDiff(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo == hi {
		return 0
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// selfTimes turns per-layer medians into per-layer self times: a layer's
// self time is its own median minus the medians of the layers it calls
// (calls maps caller → callees; leaves are absent from it). A callee that
// was not measured leaves the caller's time whole.
func selfTimes(medians map[string]float64, calls map[string][]string) map[string]float64 {
	out := make(map[string]float64, len(medians))
	for layer, m := range medians {
		for _, child := range calls[layer] {
			m -= medians[child]
		}
		out[layer] = m
	}
	return out
}

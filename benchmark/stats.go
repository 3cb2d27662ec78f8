package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the sample at
// or below it. xs need not be sorted; it is sorted in place. An empty
// sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is percentile 50 over a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// mean returns the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, and def when b is 0.
func ratio(a, b, def float64) float64 {
	if b == 0 {
		return def
	}
	return a / b
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histBucket is one cumulative bucket of a formserve latency histogram as
// /metrics renders it: Count observations at or below LE nanoseconds
// (LE is +Inf for the last bucket).
type histBucket struct {
	LE    float64
	Count uint64
}

// histSnapshot is one scrape of a histogram: total count plus cumulative
// buckets in ascending LE order.
type histSnapshot struct {
	Count   uint64
	Max     float64
	Buckets []histBucket
}

// histDeltaQuantile estimates the q-quantile (0..1) of the observations
// recorded between two scrapes of the same histogram, interpolating
// linearly inside the bucket where the cumulative delta crosses q. The
// +Inf bucket is bounded by the later scrape's max. It returns the value
// in the histogram's unit (nanoseconds for formserve) and false when no
// observation fell between the scrapes.
func histDeltaQuantile(before, after histSnapshot, q float64) (float64, bool) {
	if len(after.Buckets) == 0 || after.Count <= before.Count {
		return 0, false
	}
	delta := func(i int) float64 {
		d := float64(after.Buckets[i].Count)
		if i < len(before.Buckets) {
			d -= float64(before.Buckets[i].Count)
		}
		return d
	}
	total := delta(len(after.Buckets) - 1)
	if total <= 0 {
		return 0, false
	}
	target := q * total
	lo, prev := 0.0, 0.0
	for i, b := range after.Buckets {
		cum := delta(i)
		hi := b.LE
		if math.IsInf(hi, 1) {
			hi = math.Max(after.Max, lo)
		}
		if cum >= target {
			if cum == prev {
				return hi, true
			}
			return lo + (hi-lo)*(target-prev)/(cum-prev), true
		}
		lo, prev = hi, cum
	}
	return lo, true
}

// prScore accumulates micro-averaged precision and recall: true positives
// over everything claimed, and over everything that should have been.
type prScore struct {
	TP, Claimed, Truth int
}

func (s *prScore) add(tp, claimed, truth int) {
	s.TP += tp
	s.Claimed += claimed
	s.Truth += truth
}

// Precision is TP/Claimed; nothing claimed makes no false claim (1).
func (s prScore) Precision() float64 { return ratio(float64(s.TP), float64(s.Claimed), 1) }

// Recall is TP/Truth; nothing to find is fully found (1).
func (s prScore) Recall() float64 { return ratio(float64(s.TP), float64(s.Truth), 1) }

// windows groups samples into consecutive windows of width w by each
// sample's time offset from the phase start. Only whole windows are kept,
// so every window measures the same span; a phase shorter than one window
// is a single window.
func windows(offsets []time.Duration, xs []float64, w time.Duration) [][]float64 {
	var end time.Duration
	for _, o := range offsets {
		end = max(end, o)
	}
	n := int(end / w)
	if n < 1 {
		return [][]float64{append([]float64(nil), xs...)}
	}
	out := make([][]float64, n)
	for i, o := range offsets {
		if k := int(o / w); k < n {
			out[k] = append(out[k], xs[i])
		}
	}
	return out
}

// windowMedian is the median over windows of f applied to each window:
// a burst of machine noise spoils one window, not the figure.
func windowMedian(groups [][]float64, f func([]float64) float64) float64 {
	vals := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			vals = append(vals, f(g))
		}
	}
	return median(vals)
}

// windowRate is the median over whole windows of width w of completions
// per second, given each completion's offset from the phase start.
func windowRate(offsets []time.Duration, w time.Duration) float64 {
	ones := make([]float64, len(offsets))
	for i := range ones {
		ones[i] = 1
	}
	groups := windows(offsets, ones, w)
	if len(groups) == 1 {
		var end time.Duration
		for _, o := range offsets {
			end = max(end, o)
		}
		return ratio(float64(len(offsets)), end.Seconds(), 0)
	}
	return windowMedian(groups, func(g []float64) float64 { return float64(len(g)) / w.Seconds() })
}

func p50(xs []float64) float64 { return percentile(xs, 50) }
func p99(xs []float64) float64 { return percentile(xs, 99) }

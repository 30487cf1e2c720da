package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of an ascending slice by
// nearest rank: the smallest sample with at least q·n samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles are the candidates tailQuantile chooses from, highest
// first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile picks the highest candidate quantile that still has at
// least ten samples beyond it, the most extreme tail n samples support.
// It reports false when not even the median has ten samples beyond it.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// median returns the middle of xs (the mean of the two middle values for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is one operation's stretch of being owed an answer: from the
// instant it was due until it ended, successfully or not.
type interval struct {
	due, end time.Duration
	ok       bool
}

// longestUnavailable returns the longest interval during which some
// operation was due and unanswered while no operation completed
// successfully. Pending stretches are merged into busy periods, and each
// busy period is cut at every successful completion inside it; the
// longest piece is the answer.
func longestUnavailable(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	byDue := append([]interval(nil), ivs...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	var succ []time.Duration
	for _, iv := range ivs {
		if iv.ok {
			succ = append(succ, iv.end)
		}
	}
	sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })

	var best time.Duration
	k := 0 // first success not yet passed
	cut := func(a, b time.Duration) {
		for k < len(succ) && succ[k] <= a {
			k++
		}
		from := a
		for k < len(succ) && succ[k] <= b {
			if d := succ[k] - from; d > best {
				best = d
			}
			from = succ[k]
			k++
		}
		if d := b - from; d > best {
			best = d
		}
	}
	a, b := byDue[0].due, byDue[0].end
	for _, iv := range byDue[1:] {
		if iv.due > b {
			cut(a, b)
			a, b = iv.due, iv.end
			continue
		}
		if iv.end > b {
			b = iv.end
		}
	}
	cut(a, b)
	return best
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 0.9999, true}, // 10 beyond p99.99
		{99999, 0.999, true},   // 9 beyond p99.99, 99 beyond p99.9
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.95, true}, // 9 beyond p99
		{200, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g,%v; want %g,%v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < 10 {
			t.Errorf("tailQuantile(%d) = %g leaves %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

const msd = time.Millisecond

func TestLongestUnavailableSteadyStream(t *testing.T) {
	// An op due every 1 ms, each answered 0.5 ms later: at most 0.5 ms
	// without an answer while one is owed.
	var ivs []interval
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * msd
		ivs = append(ivs, interval{due: due, end: due + msd/2, ok: true})
	}
	if got := longestUnavailable(ivs); got != msd/2 {
		t.Errorf("steady stream: %v, want %v", got, msd/2)
	}
}

func TestLongestUnavailableStall(t *testing.T) {
	// Ops due at 0..9 ms; the ones due at 3..6 ms all complete together
	// at 40 ms, so from 3 ms until 40 ms nothing succeeds.
	var ivs []interval
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * msd
		end := due + msd/4
		if i >= 3 && i <= 6 {
			end = 40 * msd
		}
		ivs = append(ivs, interval{due: due, end: end, ok: true})
	}
	// Ops due at 7..9 ms complete at 7.25..9.25 ms, inside the stall, so
	// the stall is cut there: longest piece is 40 − 9.25 ms.
	want := 40*msd - (9*msd + msd/4)
	if got := longestUnavailable(ivs); got != want {
		t.Errorf("stall cut by later successes: %v, want %v", got, want)
	}
	// Without the later ops, the whole stall from the first owed op
	// (due 3 ms) to the 40 ms completion counts.
	if got := longestUnavailable(ivs[:7]); got != 37*msd {
		t.Errorf("stall: %v, want %v", got, 37*msd)
	}
}

func TestLongestUnavailableFailuresAndIdleGaps(t *testing.T) {
	ivs := []interval{
		{due: 0, end: 1 * msd, ok: true},
		// A failed op owed from 2 ms until it failed at 12 ms: unavailable
		// the whole time, ending at its failure.
		{due: 2 * msd, end: 12 * msd, ok: false},
		// Nothing owed between 12 and 100 ms: an idle gap, not an outage.
		{due: 100 * msd, end: 101 * msd, ok: true},
	}
	if got := longestUnavailable(ivs); got != 10*msd {
		t.Errorf("failure then idle: %v, want %v", got, 10*msd)
	}
	if got := longestUnavailable(nil); got != 0 {
		t.Errorf("empty timeline: %v", got)
	}
}
